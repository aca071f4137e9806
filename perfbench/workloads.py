"""Workload inputs, serving stacks and the code that runs each round.

Every input is drawn here from the run's ``--seed`` before any timing
starts; the program under test only ever receives the finished
``GenerationRequest`` objects.  Each decode stream is pre-drawn with
:func:`repro.serving.replayable_step_source`, so the synthetic draw is
not server work and the output check (:mod:`perfbench.check`) sees the
exact raw ``(q, k, v)`` the engine consumed.

Workloads (see :mod:`perfbench` for why each exists and which layers it
loads or bypasses):

``decode_batch32``
    Closed loop.  One ``ServingEngine`` (max batch 32, conservative
    admission, monolithic prefill, no tiering / prefix cache / shards)
    drains 64 i.i.d. requests of ~1k prompt tokens x 64 new tokens.
``burst_shared_prefix``
    A burst.  One asyncio client submits 100 requests at once into
    ``AsyncStreamingFrontend`` (with a ``ServingSimulator``, as
    ``serve-frontend`` wires it) over a 2-replica ``ClusterRouter`` with
    ``prefix_cache=True``, conservative admission (each replica's arena
    holds half the batch's lifetime footprint) and a 512-token prefill
    budget, and reads every token stream as it arrives; prompts share
    ``shared_prefix_trace``'s four 1k-token prefixes, and each request
    decodes 32 tokens.
``tiered_long_context``
    Closed loop.  One ``ServingEngine(shards=2, kv_tiering=TierConfig())``
    under optimistic admission with an arena smaller than the batch's
    full footprint and a 512-token prefill budget, draining
    ``long_context_trace`` requests.

A run repeats whole rounds (fresh stack, same inputs) until
``--seconds`` of measured time is spent, and at least two rounds, so
every figure is a median over rounds and the output digest is compared
across rounds of one seed.  Every request of a round is due when the
round starts.

A seeded Poisson open loop was tried for the frontend workload and
dropped: at 4-6 req/s its TTFT and inter-token tails moved by 0.27-0.49
of their median between seeds on a 2-vCPU host whose speed drifts by
tens of percent, because each tail sat on the few requests that
happened to collide.  The burst keeps the same layers loaded with a
fixed arrival order.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.memory import make_memory_manager
from repro.cluster.router import ClusterRouter
from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator
from repro.kvstore.tiers import TierConfig
from repro.model.config import get_model_config
from repro.serving import (
    AsyncStreamingFrontend,
    GenerationRequest,
    ServingEngine,
    replayable_step_source,
)
from repro.workloads import long_context_trace, shared_prefix_trace

WORKLOADS = ("decode_batch32", "burst_shared_prefix", "tiered_long_context")

#: certified keep threshold every workload serves at
THRESHOLD = 2e-3
#: the hardware model every modelled number is priced on
MODEL_NAME = "gpt2-medium"
#: shared system prompts in the burst's trace
PREFIX_GROUPS = 4
#: closed-loop rounds per run never drop below this, so the per-seed
#: digest is always compared across repeated runs of the same inputs
MIN_ROUNDS = 2
#: setup (build + first warm step) is repeated at least this often per
#: run and reported as a median
MIN_SETUPS = 25


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload at one benchmark size."""

    n_heads: int
    head_dim: int
    n_requests: int
    prompt_tokens: int
    max_new_tokens: int
    max_batch: int
    #: decode_batch32: +/- prompt jitter; open: suffix tokens
    extra: int = 0
    #: tiered: arena size as a share of the batch's full footprint
    capacity_share: float = 1.0


def shape_of(workload: str, size: str) -> Shape:
    smoke = size == "smoke"
    if workload == "decode_batch32":
        if smoke:
            return Shape(2, 64, 6, 64, 4, 4, extra=8)
        return Shape(4, 64, 64, 1024, 64, 32, extra=64)
    if workload == "burst_shared_prefix":
        if smoke:
            return Shape(2, 64, 6, 64, 4, 8, extra=8)
        # 32 new tokens each: at 16, only 30 steps (0.15 s of a 5 s
        # round, 74 tokens) ingested no prompt, and decode_tok_s measured
        # those few steps alone
        return Shape(4, 64, 100, 1024, 32, 32, extra=32)
    if workload == "tiered_long_context":
        if smoke:
            return Shape(2, 64, 6, 128, 6, 4, capacity_share=0.7)
        # 0.99 of the batch's full footprint: decode growth still
        # overflows the arena, forcing 10-20 preemption swaps a round
        return Shape(4, 64, 24, 2048, 48, 16, capacity_share=0.99)
    raise ValueError(f"unknown workload {workload!r} (expected {WORKLOADS})")


@dataclass
class Inputs:
    """Every raw input of one run, drawn from its seed."""

    workload: str
    seed: int
    shape: Shape
    #: per request: its prompt's (H, t, d) keys and values, or, when
    #: ``prefixes`` is set, only the part after its group's shared prefix
    prompt_keys: List[np.ndarray]
    prompt_values: List[np.ndarray]
    #: per request: list of pre-drawn (q, k_t, v_t) decode tensors
    streams: List[list]
    #: a small request, drawn apart from the workload, for warm steps
    warm: Tuple[np.ndarray, np.ndarray, list] = None
    #: burst only: the shared (keys, values) prefixes; request ``i``
    #: belongs to group ``i % len(prefixes)``.  Prompts are joined on
    #: demand, so only one round's prompts exist at a time.
    prefixes: Optional[list] = None

    @property
    def n_requests(self) -> int:
        return len(self.streams)

    @property
    def via_frontend(self) -> bool:
        """Served through the async frontend and the router (tokens are
        timed as the client receives them) rather than a bare engine."""
        return self.workload == "burst_shared_prefix"

    def prompt(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.prefixes is None:
            return self.prompt_keys[i], self.prompt_values[i]
        keys, values = self.prefixes[i % len(self.prefixes)]
        return (
            np.concatenate([keys, self.prompt_keys[i]], axis=1),
            np.concatenate([values, self.prompt_values[i]], axis=1),
        )

    def prompt_tokens(self, i: int) -> int:
        shared = self.prefixes[0][0].shape[1] if self.prefixes else 0
        return shared + self.prompt_keys[i].shape[1]

    def longest(self) -> int:
        """Largest lifetime footprint (prompt + new tokens) of a request."""
        return max(
            self.prompt_tokens(i) + len(self.streams[i])
            for i in range(self.n_requests)
        )

    def request(self, i: int) -> GenerationRequest:
        """A fresh request object (the engine mutates what it is given)."""
        keys, values = self.prompt(i)
        stream = self.streams[i]
        return GenerationRequest(
            prompt_keys=keys,
            prompt_values=values,
            max_new_tokens=len(stream),
            step_source=stream.__getitem__,
        )

    def warm_request(self) -> GenerationRequest:
        keys, values, stream = self.warm
        return GenerationRequest(
            prompt_keys=keys,
            prompt_values=values,
            max_new_tokens=len(stream),
            step_source=stream.__getitem__,
        )

    def context(self, i: int, ordinal: int):
        """Raw (q, keys, values) the kernel saw for token ``ordinal``:
        the prompt plus every decoded token up to and including it."""
        stream = self.streams[i]
        q = stream[ordinal][0]
        new_k = np.stack([s[1] for s in stream[: ordinal + 1]], axis=1)
        new_v = np.stack([s[2] for s in stream[: ordinal + 1]], axis=1)
        keys, values = self.prompt(i)
        keys = np.concatenate([keys, new_k], axis=1)
        values = np.concatenate([values, new_v], axis=1)
        return q, keys, values


def make_inputs(workload: str, seed: int, size: str) -> Inputs:
    """Draw every input of a run from ``seed`` (same seed, same inputs)."""
    shape = shape_of(workload, size)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    h, d = shape.n_heads, shape.head_dim
    prefixes = None
    if workload == "decode_batch32":
        requests = []
        for _ in range(shape.n_requests):
            t = shape.prompt_tokens + int(
                rng.integers(-shape.extra, shape.extra + 1)
            )
            requests.append(
                GenerationRequest(
                    prompt_keys=rng.normal(size=(h, t, d)),
                    prompt_values=rng.normal(size=(h, t, d)),
                    max_new_tokens=shape.max_new_tokens,
                )
            )
    elif workload == "burst_shared_prefix":
        # the trace's four groups, drawn as suffix-free requests: their
        # prompts are exactly the shared prefixes (with filler bulk)
        prefixes = [
            (r.prompt_keys, r.prompt_values)
            for _, r in shared_prefix_trace(
                rng,
                PREFIX_GROUPS,
                n_heads=h,
                head_dim=d,
                prefix_tokens=shape.prompt_tokens,
                suffix_tokens=0,
                max_new_tokens=shape.max_new_tokens,
                n_groups=PREFIX_GROUPS,
                filler_fraction=0.75,
            )
        ]
        requests = [
            GenerationRequest(
                prompt_keys=rng.normal(size=(h, shape.extra, d)),
                prompt_values=rng.normal(size=(h, shape.extra, d)),
                max_new_tokens=shape.max_new_tokens,
            )
            for _ in range(shape.n_requests)
        ]
    else:
        requests = [
            r
            for _, r in long_context_trace(
                rng,
                shape.n_requests,
                n_heads=h,
                head_dim=d,
                prompt_tokens=shape.prompt_tokens,
                max_new_tokens=shape.max_new_tokens,
                filler_fraction=0.75,
            )
        ]
    streams = [
        replayable_step_source(rng, h, d, r.max_new_tokens)[1]
        for r in requests
    ]
    warm_rng = np.random.default_rng([seed, WORKLOADS.index(workload), 1])
    warm_t = max(shape.prompt_tokens // 16, 8)
    warm = (
        warm_rng.normal(size=(h, warm_t, d)),
        warm_rng.normal(size=(h, warm_t, d)),
        replayable_step_source(warm_rng, h, d, 2)[1],
    )
    return Inputs(
        workload=workload,
        seed=seed,
        shape=shape,
        prompt_keys=[r.prompt_keys for r in requests],
        prompt_values=[r.prompt_values for r in requests],
        streams=streams,
        warm=warm,
        prefixes=prefixes,
    )


# --------------------------------------------------------------- stacks
def pricer(inputs: Inputs) -> ServingSimulator:
    shape = inputs.shape
    return ServingSimulator(
        get_model_config(MODEL_NAME),
        context_length=shape.prompt_tokens + shape.extra + shape.max_new_tokens,
        config=TokenPickerConfig(threshold=THRESHOLD),
    )


def prefill_budget(inputs: Inputs) -> int:
    """Per-step prompt-ingest budget of the chunked-prefill workloads."""
    return 512 if inputs.shape.prompt_tokens > 512 else 32


def build_engine(inputs: Inputs) -> ServingEngine:
    """The closed-loop engine of ``decode_batch32`` / ``tiered_long_context``."""
    shape = inputs.shape
    config = TokenPickerConfig(threshold=THRESHOLD)
    longest = inputs.longest()
    if inputs.workload == "decode_batch32":
        return ServingEngine(
            config,
            max_batch_size=shape.max_batch,
            capacity_tokens=shape.max_batch * (longest + 16),
        )
    # tiered: optimistic admission over an arena below the batch's full
    # lifetime footprint, so decode growth forces preemption swaps.  The
    # 2k-token prompts stream in budgeted chunks: monolithic, each
    # admission stalled every co-resident decode for up to 0.6 s, and the
    # inter-token tail measured how many prompts one step happened to
    # admit
    return ServingEngine(
        config,
        max_batch_size=shape.max_batch,
        capacity_tokens=int(shape.capacity_share * shape.max_batch * longest),
        memory_manager=make_memory_manager("optimistic"),
        prefill_budget_tokens=prefill_budget(inputs),
        kv_tiering=TierConfig(),
        shards=2,
    )


class RecordingRouter(ClusterRouter):
    """A ``ClusterRouter`` that hands each tick's report to the benchmark.

    The frontend consumes router step reports internally; this subclass
    only forwards them (and each submit's placement) to a
    :class:`RoundLog`, which keeps references for the output check."""

    log: "Optional[RoundLog]" = None
    last_placement: Tuple[int, int] = (-1, -1)

    def submit(self, request):
        self.last_placement = super().submit(request)
        return self.last_placement

    def step(self):
        report = super().step()
        if self.log is not None:
            self.log.add_cluster_step(time.perf_counter(), report)
        return report


def build_frontend(inputs: Inputs, simulator: ServingSimulator):
    shape = inputs.shape
    longest = inputs.longest()
    # conservative admission: under the router's optimistic default the
    # starved replica preempted 45-86 sequences a round, their multi-step
    # waits were 1.0-1.7% of the inter-token gaps, and itl_ms_tail (p99)
    # jumped between one-step gaps and those waits from seed to seed.
    # Preemption swaps are what tiered_long_context exercises
    router = RecordingRouter(
        2,
        TokenPickerConfig(threshold=THRESHOLD),
        max_batch_size=shape.max_batch,
        capacity_tokens=shape.max_batch * (longest + 16) // 2,
        admission="conservative",
        prefill_budget_tokens=prefill_budget(inputs),
        prefix_cache=True,
    )
    return router, AsyncStreamingFrontend(router, simulator=simulator)


# ------------------------------------------------------------------ logs
@dataclass
class RoundLog:
    """What one measured round did, in the benchmark's own records.

    ``steps`` holds ``(t_start, t_end, EngineStepReport)`` per engine
    step; ``kept`` maps ``(request index, ordinal)`` to that token's
    ``(kept mask, output)`` arrays, which the output check digests and
    samples after the round.  The report's own ``results`` dict is
    dropped once its arrays are referenced here.
    """

    inputs: Inputs
    t_start: float = 0.0
    t_end: float = 0.0
    due: Dict[int, float] = field(default_factory=dict)
    submitted: Dict[int, float] = field(default_factory=dict)
    #: receive time of every token, per request index, in order
    received: Dict[int, List[float]] = field(default_factory=dict)
    steps: List[tuple] = field(default_factory=list)
    cluster_steps: List[tuple] = field(default_factory=list)
    kept: Dict[Tuple[int, int], tuple] = field(default_factory=dict)
    #: tokens produced so far, per request index
    produced: Dict[int, int] = field(default_factory=dict)
    #: engine key -> request index; key is request_id (one engine) or
    #: (replica, request_id) under a router
    index_of: Dict[object, int] = field(default_factory=dict)
    finished: Dict[int, object] = field(default_factory=dict)
    placements: Dict[int, int] = field(default_factory=dict)
    #: (replica, engine step index) -> step end time
    step_end: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: frontend: (receive time, engine step index) of every token event
    events: Dict[int, List[tuple]] = field(default_factory=dict)
    #: frontend: modelled seconds the frontend priced in the window
    model_time_s: float = 0.0
    #: the engines serving the round, and their prefill-chunk counters
    #: when it started
    engines: list = field(default_factory=list)
    prefill_chunks0: int = 0
    #: called after every step when set (the traced run's pool/tier
    #: occupancy samples); ``samples`` collects what it returns
    probe: Optional[Callable] = None
    samples: list = field(default_factory=list)

    def _take(self, key_of, report, t_end: float, closed: bool) -> None:
        for seq_id, view in report.per_sequence.items():
            i = self.index_of.get(key_of(view.request_id))
            if i is None:
                continue  # the warm request
            result = report.results[seq_id]
            n = self.produced.get(i, 0)
            self.produced[i] = n + 1
            self.kept[(i, n)] = (result.kept, result.outputs)
            if closed:
                self.received.setdefault(i, []).append(t_end)
        for done in report.retired:
            i = self.index_of.get(key_of(done.request_id))
            if i is not None:
                self.finished[i] = done
        report.results = {}

    def start(self, engines) -> None:
        self.engines = list(engines)
        self.prefill_chunks0 = sum(e.prefill_chunks_total for e in engines)
        self.t_start = time.perf_counter()

    def add_step(self, t0: float, t1: float, report) -> None:
        self.steps.append((t0, t1, report))
        self._take(lambda rid: rid, report, t1, closed=True)
        if self.probe is not None:
            self.samples.append(self.probe(self.engines))

    def add_cluster_step(self, t1: float, report) -> None:
        self.cluster_steps.append((t1, report))
        for rid, rep in report.per_replica.items():
            self.steps.append((t1 - rep.wall_seconds, t1, rep))
            self.step_end[(rid, rep.step_index)] = t1
            self._take(lambda req, rid=rid: (rid, req), rep, t1, closed=False)
        if self.probe is not None:
            self.samples.append(self.probe(self.engines))


# ---------------------------------------------------------------- rounds
def setup_closed(inputs: Inputs) -> Tuple[ServingEngine, float]:
    """Build the engine and drain one warm request; returns the set-up
    seconds with it."""
    t0 = time.perf_counter()
    engine = build_engine(inputs)
    engine.submit(inputs.warm_request())
    engine.run_until_drained()
    return engine, time.perf_counter() - t0


def run_closed(
    engine: ServingEngine, inputs: Inputs, probe: Optional[Callable] = None
) -> RoundLog:
    """Submit every request at once and step the engine to drain."""
    requests = [inputs.request(i) for i in range(inputs.n_requests)]
    log = RoundLog(inputs, probe=probe)
    log.start([engine])
    for i, request in enumerate(requests):
        log.index_of[engine.submit(request)] = i
        log.due[i] = log.submitted[i] = log.t_start
    while engine.n_pending or engine.n_active or engine.n_preempted:
        t0 = time.perf_counter()
        report = engine.step()
        log.add_step(t0, time.perf_counter(), report)
    log.t_end = time.perf_counter()
    return log


async def _frontend_stack(inputs: Inputs, simulator: ServingSimulator):
    """Build the router + frontend, start it and drain one warm request."""
    router, frontend = build_frontend(inputs, simulator)
    frontend.start()
    stream = await frontend.submit(inputs.warm_request())
    await stream.drain()
    return router, frontend


def setup_frontend(inputs: Inputs) -> float:
    """Seconds to build the frontend stack and finish its warm request."""

    async def build() -> float:
        t0 = time.perf_counter()
        _, frontend = await _frontend_stack(inputs, pricer(inputs))
        seconds = time.perf_counter() - t0
        await frontend.close()
        return seconds

    return asyncio.run(build())


async def _burst(inputs: Inputs, log: RoundLog) -> None:
    router, frontend = await _frontend_stack(inputs, pricer(inputs))
    requests = [inputs.request(i) for i in range(inputs.n_requests)]
    consumers = []

    async def consume(i: int, stream) -> None:
        times = log.received.setdefault(i, [])
        events = log.events.setdefault(i, [])
        async for event in stream:
            times.append(time.perf_counter())
            events.append((times[-1], event.step_index))
        log.finished.setdefault(i, stream.result)

    model_t0 = frontend.model_time_s
    router.log = log
    log.start(router.replicas)
    for i, request in enumerate(requests):
        log.due[i] = log.t_start
        log.submitted[i] = time.perf_counter()
        stream = await frontend.submit(request)
        log.index_of[router.last_placement] = i
        log.placements[i] = router.last_placement[0]
        consumers.append(asyncio.create_task(consume(i, stream)))
    await asyncio.gather(*consumers)
    log.t_end = time.perf_counter()
    router.log = None
    log.model_time_s = frontend.model_time_s - model_t0
    await frontend.close()


def run_frontend(inputs: Inputs, probe: Optional[Callable] = None) -> RoundLog:
    """Submit every request at once through the frontend and read every
    token stream to its end."""
    log = RoundLog(inputs, probe=probe)
    # the log is filled in place, never returned through the task: on
    # Python 3.11 ``asyncio.run`` formats its main task's repr (result
    # included) when it restores the SIGINT handler, and formatting every
    # input array took longer than the run itself
    asyncio.run(_burst(inputs, log))
    return log


def setup_seconds(inputs: Inputs) -> float:
    """One timed set-up of the workload's stack: build, warm request."""
    if inputs.via_frontend:
        return setup_frontend(inputs)
    return setup_closed(inputs)[1]


def run_round(inputs: Inputs, probe: Optional[Callable] = None) -> RoundLog:
    """One measured round on a freshly built and warmed stack."""
    if inputs.via_frontend:
        return run_frontend(inputs, probe)
    return run_closed(setup_closed(inputs)[0], inputs, probe)


def replay(inputs: Inputs, indices: List[int]) -> Dict[Tuple[int, int], tuple]:
    """Serve ``indices`` again on a plain engine (monolithic prefill, no
    prefix cache, no router), untimed: the kept masks and outputs the
    frontend workload produced must match these bit for bit."""
    requests = [inputs.request(i) for i in indices]
    engine = ServingEngine(
        TokenPickerConfig(threshold=THRESHOLD),
        max_batch_size=len(requests),
        capacity_tokens=sum(r.total_tokens + 16 for r in requests),
    )
    log = RoundLog(inputs)
    log.start([engine])
    for i, request in zip(indices, requests):
        log.index_of[engine.submit(request)] = i
    for report in engine.run_until_drained():
        log.add_step(0.0, 0.0, report)
    return log.kept
