"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload decode_batch32 --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures with nothing wrapped and prints every end-to-end
metric; ``--trace 1`` runs the workload once untraced and once with
:mod:`perfbench.layers` wrapping each layer's entry points, and prints
every per-layer metric plus the per-layer self-time table.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count requests over every round; a request
fails when it did not finish, produced the wrong number of tokens, or
failed the output check (:mod:`perfbench.check`), so ``failed_frac`` is
``failed / attempted`` (it is printed too, but is no ``metrics`` entry:
a healthy run reads exactly 0).  ``correct`` is false when any request
failed, or when repeated rounds of the seed disagree on the output
digest or on any deterministic count.

:func:`main` pins the BLAS and OpenMP pools to one thread before NumPy
loads: on a 2-vCPU host the default pool measures thread contention, not
the server.  The command exits non-zero without a result when the
``repro`` package (``src/repro``) is missing next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _paths() -> None:
    """Put this checkout's ``src`` (and the benchmark) first on the path,
    ahead of any installed copy of ``repro``."""
    for path in (ROOT, ROOT / "src"):
        if str(path) in sys.path:
            sys.path.remove(str(path))
        sys.path.insert(0, str(path))


def source_identity() -> dict:
    """The commit when the tree is a git checkout, and always a digest of
    ``src/`` (a checkout without ``.git`` still identifies its code)."""
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def environment() -> dict:
    import numpy as np

    blas = {var: os.environ.get(var) for var in THREAD_VARS}
    try:
        from threadpoolctl import threadpool_info

        blas["pools"] = [
            (p.get("internal_api"), p.get("num_threads"))
            for p in threadpool_info()
        ]
    except ImportError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas,
        **source_identity(),
    }


def _median(values):
    return float(statistics.median(values))


def deterministic(log, results) -> dict:
    """Numbers every round of one seed must reproduce exactly, traced or
    not: the arrival order is fixed, so even the frontend's batches are."""
    from perfbench.metrics import kv_bytes_per_token, modelled_tok_s

    steps = [r for _, _, r in log.steps]
    stats = [v.stats for r in steps for v in r.per_sequence.values()]
    return {
        "kv_bytes_per_token": kv_bytes_per_token(log),
        "modelled_tok_s": modelled_tok_s(log, results),
        "keep_fraction": sum(s.n_kept for s in stats)
        / max(sum(s.n_tokens for s in stats), 1),
        "demotions": sum(r.tier_demotions for r in steps),
        "promotions": sum(r.tier_promotions for r in steps),
        "reruns": sum(r.tier_reruns for r in steps),
        "swap_out": sum(len(r.preempted) for r in steps),
        "swap_in": sum(len(r.resumed) for r in steps),
    }


class Outcome:
    """Counts and verdicts accumulated over a run's rounds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, log, check) -> None:
        self.attempted += log.inputs.n_requests
        self.failed += len(check.failed)
        for i, why in sorted(check.failed.items())[:5]:
            self.problems.append(f"request {i}: {why}")
        print(
            f"check: {check.checked_instances} sampled tokens, "
            f"{len(check.failed)} failed requests, worst pruned p / threshold "
            f"{check.worst_pruned_ratio:.4f}, worst output error beyond the "
            f"pruned mass {check.worst_output_ratio:.5f} x max|v|, "
            f"digest {check.digest[:16]}"
        )

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def _round(inputs, simulator, outcome, seed, probe=None):
    """One measured round, its priced steps and its output check."""
    from perfbench import check, metrics, workloads

    log = workloads.run_round(inputs, probe=probe)
    if inputs.via_frontend:
        results = [
            simulator.step_from_cluster(busy)
            for _, report in log.cluster_steps
            if (busy := [
                r for r in report.per_replica.values()
                if r.per_sequence or r.prefill_bits
            ])
        ]
    else:
        results = metrics.priced(
            log, simulator, tiered=inputs.workload == "tiered_long_context"
        )
    verdict = check.check_round(log, seed, workloads.THRESHOLD)
    outcome.add(log, verdict)
    if inputs.via_frontend:
        sampled = sorted({i for i, _ in check.sample_keys(inputs, seed)})
        mine = {k: v for k, v in log.kept.items() if k[0] in sampled}
        outcome.require(
            check.digest(workloads.replay(inputs, sampled)) == check.digest(mine),
            "kept masks/outputs through the frontend differ from a "
            "plain-engine replay",
        )
    return log, results, verdict


def measure(workload: str, seed: int, seconds: float, size: str):
    """The ``--trace 0`` run: end-to-end metrics, medians over rounds
    (latency percentiles over every round's samples pooled,
    :func:`metrics.pooled_latencies`)."""
    from perfbench import metrics, workloads

    inputs = workloads.make_inputs(workload, seed, size)
    simulator = workloads.pricer(inputs)
    outcome = Outcome()
    # set-up is timed on its own, before any round: after a round has
    # freed its arena, the next one's page faults cost 2-5x as much and
    # varied run to run
    setups = [workloads.setup_seconds(inputs) for _ in range(workloads.MIN_SETUPS)]
    rounds, digests, counts, samples = [], set(), [], []
    measured = 0.0
    while len(rounds) < workloads.MIN_ROUNDS or measured < seconds:
        log, results, verdict = _round(inputs, simulator, outcome, seed)
        measured += log.t_end - log.t_start
        rounds.append(metrics.round_metrics(log, results, verdict.failed))
        digests.add(verdict.digest)
        counts.append(deterministic(log, results))
        samples.append(metrics.latencies(log))
        print(f"round {len(rounds)}: e2e_tok_s={rounds[-1]['e2e_tok_s']:.1f}")
        del log, results, verdict
    outcome.require(len(digests) == 1, f"rounds disagree on digest: {digests}")
    outcome.require(
        all(c == counts[0] for c in counts),
        f"rounds disagree on deterministic numbers: {counts}",
    )
    values = {name: _median([r[name] for r in rounds]) for name in rounds[0]}
    for name, (value, level, n) in metrics.pooled_latencies(samples).items():
        values[name] = value
        print(f"{name}: p{level:g} of {n} samples over {len(rounds)} rounds")
    values["setup_s"] = _median(setups)
    values["peak_rss_mb"] = metrics.peak_rss_mb()
    print(f"rounds: {len(rounds)}  setups: {len(setups)}")
    print("deterministic: " + json.dumps(counts[0], sort_keys=True))
    return outcome, {
        name: (values[name], unit) for name, unit in metrics.END_TO_END.items()
    }, counts[0]


def traced(
    workload: str, seed: int, seconds: float, size: str, out_dir: Path = OUT_DIR
):
    """The ``--trace 1`` run: one untraced round, then the same round
    with every layer wrapped; per-layer metrics from the traced one."""
    from perfbench import layers, metrics, workloads

    inputs = workloads.make_inputs(workload, seed, size)
    simulator = workloads.pricer(inputs)
    outcome = Outcome()
    plain, plain_results, _ = _round(inputs, simulator, outcome, seed)
    untraced_wall = plain.t_end - plain.t_start
    plain_numbers = deterministic(plain, plain_results)
    del plain, plain_results
    with layers.LayerTracer() as tracer:
        log, results, _ = _round(
            inputs, simulator, outcome, seed, probe=metrics.occupancy_probe
        )
        spans = layers.Spans(tracer.tracer.events)
        values, table = metrics.layer_metrics(
            log, spans, results, simulator, untraced_wall
        )
    same = deterministic(log, results)
    outcome.require(
        same == plain_numbers,
        "traced round's deterministic numbers differ from the untraced "
        f"round: {same} != {plain_numbers}",
    )
    print("deterministic: " + json.dumps(same, sort_keys=True))
    wall = log.t_end - log.t_start
    print(f"per-layer self time over the traced wall ({1e3 * wall:.1f} ms):")
    for layer, secs in table.items():
        print(f"  {layer:<20s} {1e3 * secs:10.2f} ms  {100 * secs / wall:6.2f} %")
    print(f"  {'sum':<20s} {1e3 * sum(table.values()):10.2f} ms")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = tracer.tracer.write_span_log(out_dir / f"{workload}-seed{seed}.jsonl")
    print(f"span log: {path} ({len(spans.events)} spans)")
    return outcome, {
        name: (values[name], unit) for name, unit in metrics.PER_LAYER.items()
    }, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke shrinks every workload for the self-tests",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _paths()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    run = traced if args.trace else measure
    outcome, metrics, _ = run(args.workload, args.seed, args.seconds, args.size)
    for problem in outcome.problems:
        print(f"problem: {problem}")
    print(
        f"failed_frac: {outcome.failed / max(outcome.attempted, 1):.6f} ratio "
        f"({outcome.failed} of {outcome.attempted} requests)"
    )
    print(
        json.dumps(
            {
                "correct": not outcome.problems and outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
