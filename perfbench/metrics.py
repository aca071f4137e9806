"""End-to-end and per-layer metrics from the benchmark's own records.

Every metric here is computed from :class:`perfbench.workloads.RoundLog`
records (times the benchmark took around public calls, and public
``EngineStepReport`` / ``CompletedRequest`` fields) and, for per-layer
times, from the spans :mod:`perfbench.layers` recorded.  The names and
units are the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import resource
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.hw.serving import step_seconds

from perfbench.workloads import RoundLog

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "e2e_tok_s": "tok/s",
    "decode_tok_s": "tok/s",
    "ttft_ms_p50": "ms",
    "ttft_ms_tail": "ms",
    "itl_ms_p50": "ms",
    "itl_ms_tail": "ms",
    "slo_goodput_rps": "req/s",
    "kv_bytes_per_token": "B/token",
    "modelled_tok_s": "tok/s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER = {
    "serving.frontend.submit_ms_p50": "ms",
    "serving.frontend.event_lag_ms_p50": "ms",
    "serving.frontend.gen_late_ms_tail": "ms",
    "cluster.router.submit_ms_p50": "ms",
    "cluster.router.step_self_ms_p50": "ms",
    "cluster.router.replica_share_max": "ratio",
    "cluster.router.queue_wait_ms_p50": "ms",
    "serving.scheduler.admit_ms_p50": "ms",
    "serving.scheduler.batch_occupancy_mean": "seqs",
    "serving.scheduler.prefill_chunks": "count",
    "serving.engine.step_ms_p50": "ms",
    "serving.engine.step_ms_tail": "ms",
    "serving.engine.self_ms_per_step": "ms/step",
    "serving.engine.unattributed_frac": "ratio",
    "serving.engine.preemptions": "count",
    "core.pruning.calls": "count",
    "core.pruning.ms_per_call": "ms",
    "core.pruning.score_chunk0_ms": "ms/step",
    "core.pruning.score_refine_ms": "ms/step",
    "core.pruning.prune_ms": "ms/step",
    "core.pruning.unpack_ms": "ms/step",
    "core.pruning.alive_frac_r1": "ratio",
    "core.pruning.alive_frac_r2": "ratio",
    "core.pruning.keep_fraction": "ratio",
    "core.pruning.chunks_per_token": "chunks",
    "serving.kv_pool.append_ms_per_step": "ms/step",
    "serving.kv_pool.swap_out": "count",
    "serving.kv_pool.swap_in": "count",
    "serving.kv_pool.swap_ms": "ms",
    "serving.kv_pool.utilization_peak": "ratio",
    "serving.kv_pool.reserved_unused_frac": "ratio",
    "kvstore.radix.acquire_ms_p50": "ms",
    "kvstore.radix.release_ms_p50": "ms",
    "kvstore.radix.hit_rate": "ratio",
    "kvstore.tiers.run_policy_ms_per_step": "ms/step",
    "kvstore.tiers.demotions": "count",
    "kvstore.tiers.promotions": "count",
    "kvstore.tiers.rerun_ratio": "ratio",
    "kvstore.tiers.fast_bytes_per_token": "B/token",
    "kvstore.tiers.slow_bytes_per_token": "B/token",
    "kvstore.tiers.hot_frac": "ratio",
    "cluster.shard.run_ms_per_step": "ms/step",
    "cluster.shard.straggler_ratio": "ratio",
    "cluster.shard.allgather_bytes_per_token": "B/token",
    "cluster.shard.allgather_cut": "ratio",
    "hw.serving.price_ms_p50": "ms",
    "hw.serving.weights_cycles_frac": "ratio",
    "hw.serving.attention_cycles_frac": "ratio",
    "hw.serving.prefill_cycles_frac": "ratio",
    "hw.serving.allgather_cycles_frac": "ratio",
    "hw.serving.sharded_over_tiered_cycles": "ratio",
    "trace.overhead_frac": "ratio",
}


# ------------------------------------------------------------- helpers
#: the conventional percentiles a tail is reported at
TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9)


def tail_level(n: int) -> float:
    """The highest of :data:`TAIL_LEVELS` with at least ten of ``n``
    samples beyond it (p50 when even p90 has fewer).  A level between
    them would sit on the ten largest samples alone, and on a shared
    2-vCPU host that order statistic varied by a third between runs."""
    return max(
        (p for p in TAIL_LEVELS if n * (100.0 - p) >= 1000.0 - 1e-6),
        default=TAIL_LEVELS[0],
    )


def p50(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the tail percentile."""
    if not len(values):
        return 0.0, 0.0, 0
    level = tail_level(len(values))
    return float(np.percentile(values, level)), level, len(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def decode_steps(log: RoundLog) -> list:
    return [
        (t0, t1, r)
        for t0, t1, r in log.steps
        if r.per_sequence and r.prefill_tokens == 0
    ]


def tokens_of(log: RoundLog) -> int:
    return sum(log.produced.values())


def kv_bytes_per_token(log: RoundLog) -> float:
    bits = sum(
        view.stats.total_bits_fetched
        for _, _, r in log.steps
        for view in r.per_sequence.values()
    )
    return bits / 8.0 / max(tokens_of(log), 1)


def priced(log: RoundLog, simulator, tiered: bool) -> list:
    """Each closed-loop step priced the way the engine's trace prices a
    step of this engine (``step_from_tiered`` for the tiered workload)."""
    heads = log.inputs.shape.n_heads
    price = simulator.step_from_tiered if tiered else simulator.step_from_engine
    return [
        price(r, engine_heads=heads)
        for _, _, r in log.steps
        if r.per_sequence or r.prefill_bits
    ]


def modelled_tok_s(log: RoundLog, results) -> float:
    if log.inputs.via_frontend:
        seconds = log.model_time_s
    else:
        seconds = sum(step_seconds(res) for res in results)
    return tokens_of(log) / seconds if seconds > 0 else 0.0


def latencies(log: RoundLog) -> Tuple[List[float], List[float]]:
    """TTFT samples (from each request's due time) and inter-token
    samples, in ms.  Through the frontend: gaps between tokens as the
    client received them.  On a bare engine: the wall time of the step
    that produced each non-first token."""
    ttft = [
        1e3 * (times[0] - log.due[i])
        for i, times in log.received.items()
        if times
    ]
    itl: List[float] = []
    if log.inputs.via_frontend:
        for times in log.received.values():
            itl.extend(1e3 * np.diff(times))
        return ttft, itl
    seen = set()
    for t0, t1, r in log.steps:
        for view in r.per_sequence.values():
            if view.request_id in seen:
                itl.append(1e3 * (t1 - t0))
            else:
                seen.add(view.request_id)
    return ttft, itl


def round_metrics(log: RoundLog, results, failed) -> Dict[str, float]:
    """Every end-to-end metric of one round except set-up, memory and the
    latency percentiles (:func:`pooled_latencies` takes those over the
    whole run).

    Every request is due when the round starts, so there is no arrival
    schedule to hold a latency limit against: ``slo_goodput_rps`` is the
    rate of requests that finished and passed the output check, over the
    wall time from the first submit to drain."""
    wall = log.t_end - log.t_start
    tokens = tokens_of(log)
    decode = decode_steps(log)
    decode_wall = sum(t1 - t0 for t0, t1, _ in decode)
    decode_tokens = sum(len(r.per_sequence) for _, _, r in decode)
    out = {
        "e2e_tok_s": tokens / wall,
        "decode_tok_s": decode_tokens / decode_wall if decode_wall else 0.0,
        "kv_bytes_per_token": kv_bytes_per_token(log),
        "modelled_tok_s": modelled_tok_s(log, results),
    }
    out["slo_goodput_rps"] = (
        sum(1 for i in log.finished if i not in failed) / wall
    )
    return out


def pooled_latencies(samples) -> Dict[str, Tuple[float, float, int]]:
    """The p50 and tail of TTFT and of inter-token gaps over a run, as
    ``name -> (value, percentile, sample count)``, from each round's
    :func:`latencies`.

    Every percentile is taken over the samples of all rounds pooled.
    The tail's level is chosen by :func:`tail_level` from one round's
    sample count, which the seed fixes, so it does not move with the
    number of rounds a run fits.  Every request decoding in one step
    sees the same gap, so one round's p99 of the burst's 3,100 gaps sat
    on its two or three slowest steps and moved 52-96 ms between runs;
    pooled over the run it sits on a few times as many."""
    out = {}
    for kind, per_round in zip(("ttft", "itl"), zip(*samples)):
        pooled = np.concatenate([np.asarray(r, dtype=float) for r in per_round])
        level = tail_level(min(len(r) for r in per_round))
        for name, q in (("p50", 50.0), ("tail", level)):
            value = float(np.percentile(pooled, q)) if pooled.size else 0.0
            out[f"{kind}_ms_{name}"] = (value, q, int(pooled.size))
    return out


# ------------------------------------------------------------ per layer
def occupancy_probe(engines) -> Tuple[float, float]:
    """(reserved-but-unused share of allocated pool rows, fast-tier share
    of tiered rows) after one step, over every engine with a pool."""
    rows = used = hot = tiered = 0
    for engine in engines:
        pool = engine.pool
        if pool is None:
            continue
        rows += pool.blocks_in_use * pool.block_size
        used += pool.tokens_cached
        if engine.tiers is not None:
            h = engine.tiers.total_hot_tokens
            hot += h
            tiered += h + engine.tiers.total_demoted_tokens
    return (
        1.0 - used / rows if rows else 0.0,
        hot / tiered if tiered else 0.0,
    )


def _ms(events) -> List[float]:
    return [1e3 * ev.dur_s for ev in events]


def _sum_ms(events) -> float:
    return 1e3 * sum(ev.dur_s for ev in events)


def layer_metrics(log: RoundLog, spans, results, simulator, untraced_wall):
    """Every per-layer metric of one traced round, and its self-time table.

    ``spans`` are the :class:`perfbench.layers.Spans` recorded while the
    round ran; only those inside its measured window count, except that
    a closed loop's steps are priced after the window.  ``results`` are
    the round's priced steps.  Layers a workload bypasses read 0."""
    wall = log.t_end - log.t_start
    inside = spans.within(log.t_start, log.t_end)
    table = inside.layer_table(wall)
    steps = [r for _, _, r in log.steps]
    busy = [r for r in steps if r.per_sequence]
    n_busy = max(len(busy), 1)
    tokens = max(tokens_of(log), 1)
    views = [v for r in busy for v in r.per_sequence.values()]
    stats = [v.stats for v in views]
    finished = list(log.finished.values())
    m: Dict[str, float] = {}

    # serving.frontend / cluster.router (frontend workload only)
    m["serving.frontend.submit_ms_p50"] = p50(
        _ms(inside.named("AsyncStreamingFrontend.submit"))
    )
    lags = [
        1e3 * (t - log.step_end[(log.placements[i], step)])
        for i, events in log.events.items()
        for t, step in events
    ]
    m["serving.frontend.event_lag_ms_p50"] = p50(lags)
    late = [1e3 * (log.submitted[i] - log.due[i]) for i in log.submitted]
    m["serving.frontend.gen_late_ms_tail"] = (
        tail(late)[0] if log.inputs.via_frontend else 0.0
    )
    m["cluster.router.submit_ms_p50"] = p50(
        _ms(inside.named("ClusterRouter.submit"))
    )
    m["cluster.router.step_self_ms_p50"] = p50(
        [1e3 * inside.self_time(ev) for ev in inside.named("ClusterRouter.step")]
    )
    shares = [
        list(log.placements.values()).count(rid) / len(log.placements)
        for rid in set(log.placements.values())
    ]
    m["cluster.router.replica_share_max"] = max(shares, default=0.0)
    m["cluster.router.queue_wait_ms_p50"] = (
        p50([1e3 * done.stats.queue_wait_seconds for done in finished])
        if log.placements
        else 0.0
    )

    # serving.scheduler / serving.engine
    m["serving.scheduler.admit_ms_p50"] = p50(_ms(inside.named("Scheduler.admit")))
    m["serving.scheduler.batch_occupancy_mean"] = (
        float(np.mean([r.n_active for r in busy])) if busy else 0.0
    )
    m["serving.scheduler.prefill_chunks"] = float(
        sum(e.prefill_chunks_total for e in log.engines) - log.prefill_chunks0
    )
    engine_steps = inside.named("ServingEngine.step")
    m["serving.engine.step_ms_p50"] = p50(_ms(engine_steps))
    m["serving.engine.step_ms_tail"] = tail(_ms(engine_steps))[0]
    m["serving.engine.self_ms_per_step"] = (
        1e3 * table["serving.engine"] / max(len(engine_steps), 1)
    )
    m["serving.engine.unattributed_frac"] = table["unattributed"] / wall
    m["serving.engine.preemptions"] = float(sum(len(r.preempted) for r in steps))

    # core.pruning
    kernel = inside.named(
        "engine.token_picker_attention_ragged",
        "shard.token_picker_attention_ragged",
    )
    m["core.pruning.calls"] = float(len(kernel))
    m["core.pruning.ms_per_call"] = _sum_ms(kernel) / max(len(kernel), 1)
    for phase in ("score_chunk0", "score_refine", "prune", "unpack"):
        m[f"core.pruning.{phase}_ms"] = (
            1e3 * sum(r.phase_seconds.get(phase, 0.0) for r in busy) / n_busy
        )
    alive = sum(r.round_alive for r in busy if r.round_alive is not None)
    first = float(alive[0]) if busy and alive[0] else 1.0
    m["core.pruning.alive_frac_r1"] = float(alive[1]) / first if busy else 0.0
    m["core.pruning.alive_frac_r2"] = float(alive[2]) / first if busy else 0.0
    n_tokens = max(sum(s.n_tokens for s in stats), 1)
    m["core.pruning.keep_fraction"] = sum(s.n_kept for s in stats) / n_tokens
    m["core.pruning.chunks_per_token"] = (
        sum(s.k_chunks_fetched for s in stats) / n_tokens
    )

    # serving.kv_pool
    appends = inside.named(
        "KVCachePool.append_rows",
        "KVCachePool.append_slots",
        "KVCachePool.append_encoded",
    )
    m["serving.kv_pool.append_ms_per_step"] = _sum_ms(appends) / n_busy
    m["serving.kv_pool.swap_out"] = float(sum(len(r.preempted) for r in steps))
    m["serving.kv_pool.swap_in"] = float(sum(len(r.resumed) for r in steps))
    m["serving.kv_pool.swap_ms"] = _sum_ms(
        inside.named("KVCachePool.swap_out", "KVCachePool.swap_in")
    )
    m["serving.kv_pool.utilization_peak"] = max(
        (e.pool.peak_blocks_in_use / e.pool.n_blocks for e in log.engines
         if e.pool is not None),
        default=0.0,
    )
    m["serving.kv_pool.reserved_unused_frac"] = (
        float(np.mean([s[0] for s in log.samples])) if log.samples else 0.0
    )

    # kvstore.radix
    m["kvstore.radix.acquire_ms_p50"] = p50(_ms(inside.named("RadixKVCache.acquire")))
    m["kvstore.radix.release_ms_p50"] = p50(_ms(inside.named("RadixKVCache.release")))
    lookups = sum(done.stats.prompt_tokens for done in finished)
    hits = sum(done.stats.prefix_hit_tokens for done in finished)
    m["kvstore.radix.hit_rate"] = hits / lookups if lookups else 0.0

    # kvstore.tiers
    tiered = any(e.tiers is not None for e in log.engines)
    m["kvstore.tiers.run_policy_ms_per_step"] = (
        _sum_ms(inside.named("TieredKVStore.run_policy")) / n_busy
    )
    m["kvstore.tiers.demotions"] = float(sum(r.tier_demotions for r in steps))
    m["kvstore.tiers.promotions"] = float(sum(r.tier_promotions for r in steps))
    m["kvstore.tiers.rerun_ratio"] = (
        sum(r.tier_reruns for r in steps) / max(len(views), 1)
    )
    m["kvstore.tiers.fast_bytes_per_token"] = (
        sum(max(v.fast_bits, 0) for v in views) / 8.0 / tokens
    )
    m["kvstore.tiers.slow_bytes_per_token"] = (
        sum(max(v.slow_bits, 0) for v in views) / 8.0 / tokens
    )
    m["kvstore.tiers.hot_frac"] = (
        float(np.mean([s[1] for s in log.samples]))
        if tiered and log.samples
        else 0.0
    )

    # cluster.shard
    runs = inside.named("ShardGroup.run")
    m["cluster.shard.run_ms_per_step"] = _sum_ms(runs) / n_busy
    ratios = []
    for run in runs:
        slices = [
            ev.dur_s
            for ev in kernel
            if ev.args["parent"] == run.args["span"]
        ]
        if slices:
            ratios.append(max(slices) / float(np.mean(slices)))
    m["cluster.shard.straggler_ratio"] = float(np.mean(ratios)) if ratios else 0.0
    shard_views = [v for r in busy for v in r.shard_views]
    shipped = sum(v.allgather_bits for v in shard_views)
    m["cluster.shard.allgather_bytes_per_token"] = shipped / 8.0 / tokens
    m["cluster.shard.allgather_cut"] = (
        sum(v.baseline_allgather_bits for v in shard_views) / shipped
        if shipped
        else 0.0
    )

    # hw.serving
    # the frontend prices inside the serving loop; a bare engine's steps
    # are priced after the round
    pricing = inside.named(*_PRICERS, top=True) or spans.named(
        *_PRICERS, top=True
    )
    m["hw.serving.price_ms_p50"] = p50(_ms(pricing))
    parts = {"weights": 0, "attention": 0, "prefill": 0, "allgather": 0}
    for res in results:
        for replica in getattr(res, "per_replica", [res]):
            parts["weights"] += replica.weight_cycles
            parts["attention"] += replica.attention_cycles
            parts["prefill"] += replica.prefill_cycles
            parts["allgather"] += getattr(replica, "allgather_cycles", 0)
    total = sum(parts.values())
    for part, cycles in parts.items():
        m[f"hw.serving.{part}_cycles_frac"] = cycles / total if total else 0.0
    m["hw.serving.sharded_over_tiered_cycles"] = 0.0
    if tiered and busy and busy[0].shard_views:
        heads = log.inputs.shape.n_heads
        sharded = sum(
            simulator.step_from_sharded(r, engine_heads=heads).total_cycles
            for r in busy
        )
        m["hw.serving.sharded_over_tiered_cycles"] = sharded / sum(
            res.total_cycles for res in results
        )

    m["trace.overhead_frac"] = wall / untraced_wall - 1.0
    return m, table


_PRICERS = (
    "ServingSimulator.step_from_traffic",
    "ServingSimulator.step_from_engine",
    "ServingSimulator.step_from_sharded",
    "ServingSimulator.step_from_tiered",
    "ServingSimulator.step_from_cluster",
)
