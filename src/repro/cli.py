"""Command-line entry point: regenerate any table or figure.

Usage::

    tokenpicker fig2            # memory breakdown
    tokenpicker fig3            # score-distribution variability
    tokenpicker fig4            # locality heatmap + margins
    tokenpicker fig8            # normalized DRAM access + PPL
    tokenpicker fig9            # SpAtten comparison
    tokenpicker fig10           # speedup + energy
    tokenpicker table1 table2   # hardware configuration, area/power
    tokenpicker all             # everything

``fig4``/``fig8``/``fig9``/``fig10`` need the reference LM; the first run
trains it (about a minute) and caches the weights under ``.cache/``.

Beyond the paper artifacts, ``tokenpicker serve-sim`` drives the
continuous-batching serving engine (:mod:`repro.serving`) on synthetic
traffic and converts its measured per-sequence KV traffic into decode-step
latency/throughput on the modelled hardware::

    tokenpicker serve-sim --batch-size 16 --n-requests 48

``tokenpicker serve-cluster`` scales that to N router-fronted replicas
(:mod:`repro.cluster`) with optimistic admission and probability-guided
preemption; ``--profile`` prints each replica's TTFT / per-token latency
percentiles from the metrics registry::

    tokenpicker serve-cluster --replicas 4 --admission optimistic --profile
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

EXPERIMENTS = ("fig2", "fig3", "fig4", "fig8", "fig9", "fig10", "table1", "table2")


def _run_one(name: str, fast: bool) -> str:
    from repro.eval import experiments as ex

    if name == "fig2":
        return ex.run_fig2().format()
    if name == "fig3":
        return ex.run_fig3().format()
    if name == "fig4":
        return ex.run_fig4().format()
    if name == "fig8":
        return ex.run_fig8(
            n_instances=3 if fast else 8, measure_ppl=not fast
        ).format()
    if name == "fig9":
        return ex.run_fig9(n_instances=3 if fast else 8).format()
    if name == "fig10":
        return ex.run_fig10(n_instances=2 if fast else 4).format()
    if name == "table1":
        return ex.run_table1().format()
    if name == "table2":
        return ex.run_table2().format()
    raise KeyError(name)


def _tier_config(args):
    """``TierConfig | None`` from the CLI flags."""
    if not getattr(args, "kv_tiering", False):
        return None
    from repro.kvstore import TierConfig

    return TierConfig(
        policy=args.tier_policy,
        hot_budget_tokens=args.hot_budget,
    )


def _prefix_cache(args):
    """``RadixKVCache | None`` from the CLI flags (serve-sim's engine)."""
    if not getattr(args, "prefix_cache", False):
        return None
    from repro.kvstore import RadixKVCache

    return RadixKVCache(capacity_tokens=args.prefix_cache_capacity)


def _trace_paths(args):
    """``(perfetto_path, span_log_path)`` from ``--trace-out PATH``.

    PATH names the Perfetto file; the span log lands next to it with a
    ``.jsonl`` suffix.  If PATH itself ends in ``.jsonl`` (or
    ``.jsonl.gz`` — the gzip-compressed span log) the roles swap so
    neither artifact clobbers the other.
    """
    from pathlib import Path

    out = Path(args.trace_out)
    if out.name.endswith(".jsonl.gz"):
        return out.with_name(out.name[: -len(".jsonl.gz")] + ".json"), out
    span_log = out.with_suffix(".jsonl")
    if span_log == out:
        out = out.with_suffix(".json")
    return out, span_log


def _tracer_from_args(args):
    """``Tracer | None`` from the ``--trace-out``/``--trace-sample``/
    ``--trace-stream`` flags."""
    if not getattr(args, "trace_out", None):
        return None
    from repro.obs import Tracer

    sink = None
    if getattr(args, "trace_stream", False):
        from repro.obs import JsonlStreamingSink

        _, span_log = _trace_paths(args)
        sink = JsonlStreamingSink(span_log)
    return Tracer(
        sample_steps=max(1, getattr(args, "trace_sample", 1)), sink=sink
    )


def _write_trace_artifacts(tracer, args) -> List[str]:
    """Flush the tracer to disk: Perfetto JSON + lossless JSONL span log.

    Buffered (default): both artifacts are written from memory here.
    Streamed (``--trace-stream``): the span log is already on disk —
    close the sink, then project the streamed records into the Perfetto
    view post-hoc.
    """
    if tracer is None:
        return []
    import json
    from pathlib import Path

    out, span_log = _trace_paths(args)
    if getattr(args, "trace_stream", False):
        from repro.obs import load_events, span_records_to_perfetto

        tracer.close()
        Path(out).write_text(
            json.dumps(span_records_to_perfetto(load_events(span_log)))
        )
        line = (
            f"  trace: {span_log} (streamed span log, peak "
            f"{tracer.peak_open_spans} open) -> {out} (Perfetto)"
        )
    else:
        tracer.write_trace(out)
        tracer.write_span_log(span_log)
        line = f"  trace: {out} (Perfetto) + {span_log} (span log)"
    if tracer.errors:
        line += f"  [{len(tracer.errors)} span errors]"
    return [line]


def _run_serve_sim(args) -> str:
    """Continuous-batching serving simulation on synthetic traffic."""
    import numpy as np

    from repro.core import TokenPickerConfig
    from repro.eval.batching import measured_batch_point
    from repro.hw.serving import ServingSimulator, tokens_per_second
    from repro.model.config import get_model_config
    from repro.serving import ServingEngine, synthetic_request

    if args.n_requests < 1:
        raise ValueError(f"--n-requests must be >= 1, got {args.n_requests}")
    if args.context_length < 24 or args.max_new_tokens < 1:
        raise ValueError(
            "--context-length must be >= 24 and --max-new-tokens >= 1"
        )
    if args.prefill_budget < 0:
        raise ValueError(
            f"--prefill-budget must be >= 0, got {args.prefill_budget}"
        )
    model = get_model_config(args.model)
    rng = np.random.default_rng(args.seed)
    n_heads, head_dim = 4, model.head_dim
    config = TokenPickerConfig(
        threshold=args.threshold, score_backend=args.kernel_backend
    )
    capacity = args.batch_size * (args.context_length + args.max_new_tokens + 16)
    tracer = _tracer_from_args(args)
    sim = ServingSimulator(
        model, context_length=args.context_length, config=config
    )
    engine = ServingEngine(
        config,
        max_batch_size=args.batch_size,
        capacity_tokens=capacity,
        seed=args.seed,
        prefill_budget_tokens=args.prefill_budget or None,
        kv_tiering=_tier_config(args),
        prefix_cache=_prefix_cache(args),
        tracer=tracer,
        # traced runs carry the modelled dual-clock track alongside wall
        cycle_sim=sim if tracer else None,
    )
    for _ in range(args.n_requests):
        prompt = max(8, args.context_length + int(rng.integers(-16, 17)))
        engine.submit(
            synthetic_request(
                rng, n_heads, prompt, head_dim, args.max_new_tokens
            )
        )
    reports = engine.run_until_drained()

    # the fullest step is the steady-state batch the hardware model prices
    full = max(reports, key=lambda r: r.batch_size)
    ours = sim.step_from_engine(full, engine_heads=n_heads)
    base = sim.step_from_engine(full, "baseline", engine_heads=n_heads)
    point = measured_batch_point(
        model,
        [v.stats for v in full.per_sequence.values()],
        context_length=args.context_length,
        engine_heads=n_heads,
    )
    waits = [c.stats.queue_delay_steps for c in engine.completed]
    phase_totals: dict = {}
    busy_steps = 0
    for report in reports:
        if report.batch_size:
            busy_steps += 1
            for phase, seconds in report.phase_seconds.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
    lines = [
        "Continuous-batching serving simulation "
        f"({model.name}, thr={args.threshold:g})",
        f"  requests: {len(engine.completed)}  engine steps: {len(reports)}  "
        f"peak concurrency: {engine.peak_concurrency}",
        f"  mean queue delay: {sum(waits) / len(waits):.1f} steps  "
        f"pool peak blocks: {engine.pool.peak_blocks_in_use}",
        f"  measured KV-bit reduction: {engine.counter.total_reduction:.2f}x  "
        f"keep fraction: {engine.counter.keep_fraction:.3f}",
        f"  steady-state step (B={full.batch_size}): "
        f"{base.total_cycles} -> {ours.total_cycles} cycles "
        f"({base.total_cycles / ours.total_cycles:.2f}x)",
        f"  decode throughput: {tokens_per_second(base):,.0f} -> "
        f"{tokens_per_second(ours):,.0f} tokens/s",
        f"  traffic-limited step speedup at B={point.batch_size}: "
        f"{point.step_speedup:.2f}x (KV fraction {point.kv_fraction:.2f})",
    ]
    if engine.tiers is not None:
        tiered = sim.step_from_tiered(full, engine_heads=n_heads)
        lines.append(
            f"  tiered step (B={tiered.batch_size}): fast "
            f"{tiered.fast_attention_cycles} / slow "
            f"{tiered.slow_attention_cycles} attention cycles "
            f"(step {tiered.total_cycles})"
        )
    if getattr(args, "profile", False) and busy_steps:
        total = sum(phase_totals.values())
        lines.append(
            f"  per-step phase breakdown over {busy_steps} decode steps "
            "(engine wall-clock):"
        )
        for phase in ("pack", "score", "prune", "unpack"):
            seconds = phase_totals.get(phase, 0.0)
            share = seconds / total if total else 0.0
            lines.append(
                f"    {phase:<6} {1e3 * seconds / busy_steps:7.3f} ms/step "
                f"({share:5.1%})"
            )
            if phase == "score":
                # the score phase splits into setup plus the one
                # full-width chunk-0 pass vs alive-set refinement
                for sub in ("score_chunk0", "score_refine"):
                    seconds = phase_totals.get(sub, 0.0)
                    lines.append(
                        f"      {sub[len('score_'):]:<7}"
                        f"{1e3 * seconds / busy_steps:7.3f} ms/step"
                    )
    if getattr(args, "profile", False):
        from repro.obs.profile import render_profile

        lines.extend(render_profile(engine))
    lines.extend(_write_trace_artifacts(tracer, args))
    return "\n".join(lines)


def _run_serve_cluster(args) -> str:
    """Multi-replica cluster simulation on a bursty synthetic trace."""
    import numpy as np

    from repro.cluster import ClusterRouter, bursty_trace, busiest_step_reports
    from repro.core import TokenPickerConfig
    from repro.hw.serving import ServingSimulator, tokens_per_second
    from repro.model.config import get_model_config

    if args.replicas < 1:
        raise ValueError(f"--replicas must be >= 1, got {args.replicas}")
    if args.n_requests < 1:
        raise ValueError(f"--n-requests must be >= 1, got {args.n_requests}")
    if args.context_length < 24 or args.max_new_tokens < 1:
        raise ValueError(
            "--context-length must be >= 24 and --max-new-tokens >= 1"
        )
    if args.prefill_budget < 0:
        raise ValueError(
            f"--prefill-budget must be >= 0, got {args.prefill_budget}"
        )
    model = get_model_config(args.model)
    n_heads, head_dim = 4, model.head_dim
    config = TokenPickerConfig(
        threshold=args.threshold, score_backend=args.kernel_backend
    )
    capacity = args.capacity_tokens or args.batch_size * (
        args.context_length + args.max_new_tokens + 16
    )
    tracer = _tracer_from_args(args)
    sim = ServingSimulator(
        model, context_length=args.context_length, config=config
    )
    router = ClusterRouter(
        args.replicas,
        config,
        policy=args.policy,
        admission=args.admission,
        max_batch_size=args.batch_size,
        capacity_tokens=capacity,
        allow_bypass=args.allow_bypass,
        prefill_budget_tokens=args.prefill_budget or None,
        seed=args.seed,
        kv_tiering=_tier_config(args),
        prefix_cache=getattr(args, "prefix_cache", False),
        prefix_cache_capacity=args.prefix_cache_capacity,
        tracer=tracer,
        cycle_sim=sim if tracer else None,
        shards=args.shards,
    )
    trace = bursty_trace(
        np.random.default_rng(args.seed),
        args.n_requests,
        n_heads=n_heads,
        head_dim=head_dim,
        prompt_tokens=args.context_length,
        max_new_tokens=args.max_new_tokens,
        burst_size=args.burst_size,
        gap_steps=args.burst_gap,
    )
    reports = router.run_trace(trace)
    summary = router.summary()

    # fullest cluster step -> the modelled fleet of accelerators
    busy_reports = busiest_step_reports(reports)
    ours = sim.step_from_cluster(busy_reports, engine_heads=n_heads)
    base = sim.step_from_cluster(busy_reports, "baseline", engine_heads=n_heads)
    lines = [
        f"Cluster serving simulation ({model.name}, thr={args.threshold:g}, "
        f"{args.replicas} replicas, {args.policy} routing, "
        f"{args.admission} admission)",
        f"  requests: {summary['requests_completed']}  cluster steps: "
        f"{len(reports)}  tokens: {summary['generated_tokens']}",
        f"  preemptions: {summary['preemptions']}  "
        f"resumes: {sum(r['resumes'] for r in summary['per_replica'])}  "
        f"bypassed: {sum(r['bypassed'] for r in summary['per_replica'])}",
    ]
    for rep in summary["per_replica"]:
        lines.append(
            f"  replica {rep['replica']}: {rep['requests_completed']} done  "
            f"peak batch {rep['peak_concurrency']}  "
            f"mean occupancy {rep['mean_batch_occupancy']:.2f}  "
            f"preemptions {rep['preemptions']}  "
            f"keep fraction {rep['keep_fraction']:.3f}"
        )
    if args.shards > 1:
        shipped = sum(e.allgather_bits_total for e in router.replicas)
        full = sum(e.allgather_baseline_bits_total for e in router.replicas)
        lines.append(
            f"  shards per replica: {args.shards}  all-gather traffic: "
            f"{shipped / 8:,.0f} B shipped vs {full / 8:,.0f} B unpruned "
            f"({shipped / full:.3f}x)" if full else
            f"  shards per replica: {args.shards}"
        )
    lines += [
        f"  fullest cluster step ({ours.n_replicas} busy replicas, "
        f"B={ours.batch_size}): straggler {base.max_step_cycles} -> "
        f"{ours.max_step_cycles} cycles "
        f"({base.max_step_cycles / ours.max_step_cycles:.2f}x)",
        f"  aggregate decode throughput: "
        f"{base.aggregate_tokens_per_second():,.0f} -> "
        f"{ours.aggregate_tokens_per_second():,.0f} tokens/s",
        f"  single-replica equivalent: "
        f"{tokens_per_second(ours.per_replica[0]):,.0f} tokens/s",
    ]
    if getattr(args, "profile", False):
        from repro.obs.profile import render_profile

        for rid, engine in enumerate(router.replicas):
            extra = render_profile(engine)
            if extra:
                lines.append(f"  replica {rid}:")
                lines.extend("  " + line for line in extra)
        lines.append("  telemetry (wall-clock, per replica):")
        for rid in range(args.replicas):
            for name, label in (
                ("ttft_seconds", "TTFT"),
                ("queue_wait_seconds", "queue wait"),
                ("prefill_seconds", "prefill"),
                ("token_latency_seconds", "token latency"),
            ):
                hist = router.metrics.histogram(name, replica=rid)
                s = hist.summary()
                if not s["count"]:
                    continue
                lines.append(
                    f"    replica {rid} {label:<13} "
                    f"p50 {1e3 * s['p50']:8.3f} ms  "
                    f"p95 {1e3 * s['p95']:8.3f} ms  "
                    f"p99 {1e3 * s['p99']:8.3f} ms  "
                    f"(n={s['count']})"
                )
    lines.extend(_write_trace_artifacts(tracer, args))
    return "\n".join(lines)


def _run_serve_frontend(args) -> str:
    """Async streaming frontend demo: SLO overload control or chaos run."""
    import asyncio

    import numpy as np

    from repro.core import TokenPickerConfig
    from repro.model.config import get_model_config

    if args.n_requests < 1:
        raise ValueError(f"--n-requests must be >= 1, got {args.n_requests}")
    if args.slo_p95_ms < 0 or args.deadline < 0:
        raise ValueError("--slo-p95-ms and --deadline must be >= 0")
    model = get_model_config(args.model)
    n_heads, head_dim = 4, model.head_dim
    config = TokenPickerConfig(
        threshold=args.threshold, score_backend=args.kernel_backend
    )
    rng = np.random.default_rng(args.seed)

    if args.inject_faults:
        # deterministic chaos run: seeded replica kills/revives/spikes on
        # a cluster, with a fault-free rerun as the bit-identity witness
        from repro.cluster import ClusterRouter, FaultInjector, fault_schedule
        from repro.hw.serving import ServingSimulator
        from repro.workloads import failover_trace

        if args.replicas < 2:
            raise ValueError("--inject-faults needs --replicas >= 2")

        tracer = _tracer_from_args(args)
        sim = ServingSimulator(
            model, context_length=args.context_length, config=config
        )

        def run(with_faults: bool):
            traced = with_faults and tracer is not None
            router = ClusterRouter(
                args.replicas,
                config,
                max_batch_size=args.batch_size,
                capacity_tokens=args.batch_size
                * (args.context_length + args.max_new_tokens + 16),
                seed=args.seed,
                # only the faulted run is traced: the fault-free rerun is
                # a bit-identity witness, not part of the story
                tracer=tracer if with_faults else None,
                cycle_sim=sim if traced else None,
                shards=getattr(args, "shards", 1),
            )
            schedule = (
                fault_schedule(args.seed, args.replicas, n_kills=2)
                if with_faults
                else []
            )
            injector = FaultInjector(router, schedule)
            injector.run_trace(
                failover_trace(
                    np.random.default_rng(args.seed),
                    n_heads=n_heads,
                    head_dim=head_dim,
                    n_requests=args.n_requests,
                    prompt_tokens=max(8, args.context_length // 2),
                    max_new_tokens=args.max_new_tokens,
                )
            )
            return injector

        clean, faulted = run(False), run(True)

        def traffic(injector):
            return {
                key: (
                    done.stats.counter.k_bits,
                    done.stats.counter.v_bits,
                    done.stats.generated_tokens,
                )
                for key, done in injector.outputs.items()
            }

        identical = traffic(clean) == traffic(faulted)
        stats = faulted.stats
        lines = [
            f"Chaos run ({model.name}, {args.replicas} replicas, "
            f"thr={args.threshold:g})",
            f"  kills: {stats.kills}  revives: {stats.revives}  "
            f"spikes: {stats.spikes}",
            f"  retries: {stats.retries}  swap-resumes: "
            f"{stats.swap_resumes}  re-prefills: {stats.re_prefills}  "
            f"requeues: {stats.requeues}",
            f"  completed: {len(faulted.outputs)}/{args.n_requests}  "
            f"bit-identical to fault-free run: {identical}",
        ]
        if getattr(args, "profile", False):
            lines.append(faulted.router.metrics.render())
        lines.extend(_write_trace_artifacts(tracer, args))
        if not identical:
            raise RuntimeError(
                "faulted outputs diverged from the fault-free run"
            )
        return "\n".join(lines)

    from repro.hw.serving import ServingSimulator
    from repro.serving import (
        AsyncStreamingFrontend,
        ServingEngine,
        SLOConfig,
        ShedError,
    )
    from repro.workloads import sustained_overload_trace

    tracer = _tracer_from_args(args)
    engine = ServingEngine(
        config,
        max_batch_size=args.batch_size,
        capacity_tokens=args.batch_size
        * (args.context_length + args.max_new_tokens + 16)
        * 2,
        seed=args.seed,
        prefill_budget_tokens=args.prefill_budget or None,
        kv_tiering=_tier_config(args),
        prefix_cache=_prefix_cache(args),
        tracer=tracer,
        shards=getattr(args, "shards", 1),
    )
    simulator = ServingSimulator(
        model,
        context_length=args.context_length + args.max_new_tokens,
        config=config,
    )
    slo = (
        SLOConfig(p95_inter_token_ms=args.slo_p95_ms)
        if args.slo_p95_ms > 0
        else None
    )
    frontend = AsyncStreamingFrontend(
        engine, slo=slo, simulator=simulator, tracer=tracer
    )
    trace = sustained_overload_trace(
        rng,
        n_heads=n_heads,
        head_dim=head_dim,
        n_requests=args.n_requests,
        arrivals_per_step=2,
        prompt_tokens=args.context_length,
        max_new_tokens=args.max_new_tokens,
    )

    async def drive():
        results, shed = [], 0
        async with frontend:
            streams = []
            for _, request in trace:
                try:
                    streams.append(
                        await frontend.submit(
                            request, deadline_ms=args.deadline or None
                        )
                    )
                except ShedError:
                    shed += 1
                await asyncio.sleep(0)
            for stream in streams:
                results.append(await stream.drain())
        return results, shed

    results, shed = asyncio.run(drive())
    by_state: dict = {}
    for done in results:
        by_state[done.state.value] = by_state.get(done.state.value, 0) + 1
    lines = [
        f"Async streaming frontend ({model.name}, thr={args.threshold:g}, "
        f"batch {args.batch_size})",
        f"  submitted: {len(trace)}  completed: "
        f"{by_state.get('finished', 0)}  timed out: "
        f"{by_state.get('timed_out', 0)}  cancelled: "
        f"{by_state.get('cancelled', 0)}  shed: {shed}",
        f"  engine steps: {frontend.steps_run}  modelled time: "
        f"{1e3 * frontend.model_time_s:.1f} ms",
    ]
    if frontend.controller is not None:
        c = frontend.controller
        peak = max((s.level for s in c.timeline), default=0)
        lines.append(
            f"  overload control: SLO p95 {args.slo_p95_ms:g} ms  "
            f"peak degrade level {peak}  final level {c.level}  "
            f"final threshold {c.threshold:g}"
            f"{'  (shedding)' if c.shedding else ''}"
        )
        if c.timeline:
            tail = c.timeline[-4:]
            lines.append(
                "  control windows (step: p95 / level): "
                + "  ".join(
                    f"{s.step}: {s.p95_ms:.2f}ms/L{s.level}" for s in tail
                )
            )
    if getattr(args, "profile", False):
        lines.append(frontend.registry.render())
    lines.extend(_write_trace_artifacts(tracer, args))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="tokenpicker",
        description="Regenerate the Token-Picker paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=EXPERIMENTS
        + ("all", "serve-sim", "serve-cluster", "serve-frontend"),
        help="which artifacts to regenerate (or a serving simulation)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smaller workloads / skip PPL lines (for smoke runs)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="RNG seed for serve-sim traffic"
    )
    serve = parser.add_argument_group("serve-sim options")
    serve.add_argument(
        "--model", default="gpt2-medium", help="model zoo entry to serve"
    )
    serve.add_argument(
        "--batch-size", type=int, default=8, help="max concurrent sequences"
    )
    serve.add_argument(
        "--n-requests", type=int, default=24, help="requests to submit"
    )
    serve.add_argument(
        "--context-length", type=int, default=160, help="mean prompt length"
    )
    serve.add_argument(
        "--max-new-tokens", type=int, default=12, help="decode steps per request"
    )
    serve.add_argument(
        "--threshold", type=float, default=2e-3, help="pruning threshold thr"
    )
    serve.add_argument(
        "--prefill-budget",
        type=int,
        default=0,
        help="per-step prompt-ingestion budget with decode priority: "
        "active decodes each claim one budget token (decode is never "
        "throttled) and the leftover feeds prompt chunks; bounds the "
        "inter-token latency spike a long prompt can cause "
        "(0: unbounded, monolithic prefill)",
    )
    serve.add_argument(
        "--kernel-backend",
        choices=("numpy", "numba"),
        default="numpy",
        help="contraction primitives of the fused ragged kernel's lazy "
        "alive-set score phase: NumPy ('numpy') or compiled ('numba', "
        "falls back to numpy with a warning when numba is missing); "
        "bit-identical outputs",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="serve-sim: print the engine's per-step phase breakdown; "
        "serve-cluster: print per-replica TTFT / token-latency percentiles; "
        "with --kv-tiering/--prefix-cache also print demotion and hit-rate "
        "stats",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome/Perfetto trace-event JSON of the run to PATH "
        "(open in https://ui.perfetto.dev or chrome://tracing) plus a "
        "lossless .jsonl span log next to it; request lifecycles, engine "
        "step/phase spans, tier and fault marks are all request-scoped",
    )
    serve.add_argument(
        "--trace-stream",
        action="store_true",
        help="with --trace-out, stream each span to the .jsonl span log "
        "the moment it closes instead of buffering in memory (tracer "
        "holds only open spans; a killed run leaves a readable log that "
        "repro.obs.analyze recovers, flagging the open spans as "
        "unterminated); name PATH with a .jsonl.gz suffix to gzip the "
        "log; the Perfetto JSON is projected from the streamed log "
        "after the run",
    )
    serve.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="with --trace-out, emit every Nth engine step span "
        "(request lifecycle spans are always complete; default 1 = all)",
    )
    serve.add_argument(
        "--kv-tiering",
        action="store_true",
        help="layer the two-tier KV store over the arena (bit-identical "
        "outputs; demoted tokens' bytes live in the modelled slow tier)",
    )
    serve.add_argument(
        "--tier-policy",
        choices=("mass", "lru", "recency", "none"),
        default="mass",
        help="demotion policy for --kv-tiering (default: certified "
        "retained-probability-mass)",
    )
    serve.add_argument(
        "--hot-budget",
        type=int,
        default=0,
        help="fast-tier residency target in tokens for --kv-tiering "
        "(0: policy threshold only)",
    )
    serve.add_argument(
        "--prefix-cache",
        action="store_true",
        help="dedupe shared prompt prefixes into refcounted cold-tier "
        "extents (per replica under serve-cluster)",
    )
    serve.add_argument(
        "--prefix-cache-capacity",
        type=int,
        default=65536,
        help="retained prefix-cache budget in tokens; unreferenced "
        "extents evict LRU beyond it (0: unbounded)",
    )
    cluster = parser.add_argument_group("serve-cluster options")
    cluster.add_argument(
        "--replicas", type=int, default=2, help="serving-engine replicas"
    )
    cluster.add_argument(
        "--shards",
        type=int,
        default=1,
        help="head-shard each replica across this many modelled "
        "tensor-parallel workers (kept-token all-gather priced by the "
        "interconnect model)",
    )
    cluster.add_argument(
        "--policy",
        choices=("least-loaded", "round-robin"),
        default="least-loaded",
        help="request routing policy",
    )
    cluster.add_argument(
        "--admission",
        choices=("conservative", "optimistic", "tiered"),
        default="optimistic",
        help="replica memory policy (optimistic preempts under pressure; "
        "tiered prices preemption by hot-tier footprint)",
    )
    cluster.add_argument(
        "--capacity-tokens",
        type=int,
        default=0,
        help="per-replica KV arena tokens (0: sized from the workload)",
    )
    cluster.add_argument(
        "--burst-size",
        type=int,
        default=8,
        help="requests arriving together in each burst",
    )
    cluster.add_argument(
        "--burst-gap",
        type=int,
        default=4,
        help="cluster steps between bursts",
    )
    cluster.add_argument(
        "--allow-bypass",
        action="store_true",
        help="let small queued requests bypass a blocked queue head",
    )
    frontend = parser.add_argument_group("serve-frontend options")
    frontend.add_argument(
        "--slo-p95-ms",
        type=float,
        default=0.0,
        help="inter-token p95 SLO in modelled ms; breaches degrade the "
        "keep threshold in rungs, then shed new admissions with a "
        "retry-after hint (0: overload controller off)",
    )
    frontend.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        help="per-request wall-clock deadline in ms; expired requests "
        "are timed out and their KV freed mid-flight (0: none)",
    )
    frontend.add_argument(
        "--inject-faults",
        action="store_true",
        help="run the deterministic chaos harness instead: seeded "
        "replica kills/revives/latency spikes on a cluster, verifying "
        "bit-identical outputs against a fault-free rerun "
        "(needs --replicas >= 2)",
    )
    args = parser.parse_args(argv)

    if "all" in args.experiments:
        # `all` covers the paper artifacts; explicitly named serving
        # simulations still run alongside them
        names = list(EXPERIMENTS)
        for sim_name in ("serve-sim", "serve-cluster", "serve-frontend"):
            if sim_name in args.experiments:
                names.append(sim_name)
    else:
        names = args.experiments
    for name in names:
        start = time.time()
        if name == "serve-sim":
            output = _run_serve_sim(args)
        elif name == "serve-cluster":
            output = _run_serve_cluster(args)
        elif name == "serve-frontend":
            output = _run_serve_frontend(args)
        else:
            output = _run_one(name, args.fast)
        elapsed = time.time() - start
        print(output)
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
