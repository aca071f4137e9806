"""Smoke-size self-tests of the benchmark itself.

They run every workload at ``--size smoke`` (tiny prompts, few
requests) and check the benchmark's contract rather than any speed:
metric names and units, the output check's power to catch a corrupted
result, seed handling, and that tracing changes no deterministic number.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import check, layers, metrics, run, workloads

ROOT = Path(__file__).resolve().parents[2]
SMOKE_SECONDS = 0.05


def _run_cli(workload, seed, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [
            sys.executable,
            str(script),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(SMOKE_SECONDS),
            "--trace", str(trace),
            "--size", "smoke",
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def _smoke_round(workload, seed=0):
    return workloads.run_round(workloads.make_inputs(workload, seed, "smoke"))


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(workload, trace, benchmark_json):
    out = _run_cli(workload, seed=5, trace=trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = benchmark_json["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    assert all(
        isinstance(v["value"], float) for v in result["metrics"].values()
    )


def test_benchmark_json_matches_the_code(benchmark_json):
    # decode_batch32 runs with the same command but is not listed (see
    # the perfbench package docstring)
    assert [w["name"] for w in benchmark_json["workloads"]] == [
        w for w in workloads.WORKLOADS if w != "decode_batch32"
    ]
    assert {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in benchmark_json["per_layer"]} == (
        metrics.PER_LAYER
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_kept_mask_fails_the_check(workload):
    log = _smoke_round(workload)
    clean = check.check_round(log, 0, workloads.THRESHOLD)
    assert not clean.failed
    i, ordinal = check.sample_keys(log.inputs, 0)[0]
    mask, out = log.kept[(i, ordinal)]
    q, keys, _ = log.inputs.context(i, ordinal)
    bad = mask.copy()
    bad[0, int(np.argmax(keys[0] @ q[0]))] = False  # prune the top token
    log.kept[(i, ordinal)] = (bad, out)
    broken = check.check_round(log, 0, workloads.THRESHOLD)
    assert i in broken.failed
    assert broken.digest != clean.digest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_fails_the_check(workload):
    log = _smoke_round(workload)
    i, ordinal = check.sample_keys(log.inputs, 0)[-1]
    mask, out = log.kept[(i, ordinal)]
    _, _, values = log.inputs.context(i, ordinal)
    bad = out.copy()
    bad[-1, 0] += 0.5 * np.abs(values[-1]).max()
    log.kept[(i, ordinal)] = (mask, bad)
    assert i in check.check_round(log, 0, workloads.THRESHOLD).failed


def test_a_request_that_never_finished_fails():
    log = _smoke_round("decode_batch32")
    log.finished.pop(0)
    assert 0 in check.check_round(log, 0, workloads.THRESHOLD).failed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_but_not_metric_names(workload):
    a = workloads.make_inputs(workload, 1, "smoke")
    b = workloads.make_inputs(workload, 2, "smoke")
    again = workloads.make_inputs(workload, 1, "smoke")
    assert not np.array_equal(a.prompt_keys[0], b.prompt_keys[0])
    assert np.array_equal(a.prompt_keys[0], again.prompt_keys[0])
    assert np.array_equal(a.streams[-1][-1][0], again.streams[-1][-1][0])
    _, first, _ = run.measure(workload, 1, SMOKE_SECONDS, "smoke")
    _, second, _ = run.measure(workload, 2, SMOKE_SECONDS, "smoke")
    assert list(first) == list(second) == list(metrics.END_TO_END)


def test_same_seed_same_digest_across_processes():
    digests = []
    for _ in range(2):
        out = _run_cli("tiered_long_context", seed=3, trace=0)
        assert out.returncode == 0, out.stderr
        digests.append(
            {
                line.rsplit("digest ", 1)[1]
                for line in out.stdout.splitlines()
                if line.startswith("check:")
            }
        )
    assert len(digests[0]) == 1 and digests[0] == digests[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reproduces_deterministic_numbers(workload, tmp_path):
    outcome, e2e, plain = run.measure(workload, 4, SMOKE_SECONDS, "smoke")
    t_outcome, per_layer, traced = run.traced(
        workload, 4, SMOKE_SECONDS, "smoke", out_dir=tmp_path
    )
    assert not outcome.problems and not t_outcome.problems
    assert traced == plain
    assert e2e["kv_bytes_per_token"][0] == plain["kv_bytes_per_token"]
    assert e2e["modelled_tok_s"][0] == plain["modelled_tok_s"]
    assert per_layer["core.pruning.keep_fraction"][0] == plain["keep_fraction"]
    assert per_layer["kvstore.tiers.demotions"][0] == plain["demotions"]
    assert per_layer["kvstore.tiers.promotions"][0] == plain["promotions"]
    assert per_layer["serving.kv_pool.swap_out"][0] == plain["swap_out"]
    assert per_layer["serving.kv_pool.swap_in"][0] == plain["swap_in"]
    if workload == "tiered_long_context":
        assert plain["demotions"] > 0 and plain["swap_out"] > 0
    assert list(tmp_path.glob("*.jsonl"))


def test_layer_table_sums_to_the_traced_wall():
    inputs = workloads.make_inputs("tiered_long_context", 0, "smoke")
    original = workloads.ServingEngine.__dict__["step"]
    with layers.LayerTracer() as tracer:
        assert workloads.ServingEngine.__dict__["step"] is not original
        engine, _ = workloads.setup_closed(inputs)
        log = workloads.run_closed(engine, inputs)
    spans = layers.Spans(tracer.tracer.events).within(log.t_start, log.t_end)
    wall = log.t_end - log.t_start
    table = spans.layer_table(wall)
    assert sum(table.values()) == pytest.approx(wall, rel=1e-9)
    assert table["unattributed"] >= 0.0
    assert table["core.pruning"] > 0.0 and table["kvstore.tiers"] > 0.0
    for ev in spans.events:  # every span names its parent, if any
        assert ev.args["parent"] is None or ev.args["parent"] in spans.by_id
    # the wrappers are gone once the tracer is removed
    assert workloads.ServingEngine.__dict__["step"] is original


def test_fails_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".out"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run_cli(
        "decode_batch32", 0, 0, cwd=tmp_path,
        script=tmp_path / "perfbench" / "run.py",
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
