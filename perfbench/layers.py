"""Outside-in layer tracing for the ``--trace 1`` run.

Only the traced process wraps functions.  :class:`LayerTracer` replaces
each layer's public entry points (:data:`TARGETS`) with a wrapper that
times the call and records it through the repository's own
:meth:`repro.obs.trace.Tracer.complete` into a buffered sink, written to
a JSONL span log at the end.  Each span carries its own id, its parent
span's id (the innermost wrapped call still running when it started)
and, where the call is about one request, that request's id (submit) or
sequence id (pool and tier calls).

A layer's self time is its spans' time minus their children's.  Summed
over every layer, self time equals the time covered by top-level spans,
so the per-layer table plus its ``unattributed`` row (time inside the
measured window that no wrapped call covers: the benchmark's own loop,
the frontend's event loop, unwrapped engine code between calls) equals
the traced wall time exactly.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster import shard as shard_module
from repro.cluster.router import ClusterRouter
from repro.cluster.shard import ShardGroup
from repro.hw.serving import ServingSimulator
from repro.kvstore.radix import RadixKVCache
from repro.kvstore.tiers import TieredKVStore
from repro.obs.sinks import BufferedSink
from repro.obs.trace import Tracer
from repro.serving import engine as engine_module
from repro.serving.engine import ServingEngine
from repro.serving.frontend import AsyncStreamingFrontend
from repro.serving.kv_pool import KVCachePool
from repro.serving.scheduler import Scheduler

#: (layer, owner, entry points) in stack order, outermost first
TARGETS = (
    ("serving.frontend", AsyncStreamingFrontend, ("submit",)),
    ("cluster.router", ClusterRouter, ("submit", "step")),
    ("serving.engine", ServingEngine, ("submit", "step")),
    ("serving.scheduler", Scheduler, ("admit",)),
    ("cluster.shard", ShardGroup, ("run",)),
    ("core.pruning", engine_module, ("token_picker_attention_ragged",)),
    ("core.pruning", shard_module, ("token_picker_attention_ragged",)),
    (
        "serving.kv_pool",
        KVCachePool,
        (
            "append_rows",
            "append_slots",
            "append_encoded",
            "swap_out",
            "swap_in",
            "free",
        ),
    ),
    ("kvstore.radix", RadixKVCache, ("acquire", "release")),
    (
        "kvstore.tiers",
        TieredKVStore,
        ("run_policy", "promote", "demote", "observe_step"),
    ),
    (
        "hw.serving",
        ServingSimulator,
        (
            "step_from_traffic",
            "step_from_engine",
            "step_from_sharded",
            "step_from_tiered",
            "step_from_cluster",
        ),
    ),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


def _request_of(name: str, args: tuple, result) -> Dict[str, object]:
    """The request (or sequence) a call is about, when it is about one."""
    if name.endswith(".submit"):
        if isinstance(result, tuple):  # router: (replica, request id)
            return {"request_id": result[1], "replica": result[0]}
        request_id = getattr(result, "request_id", result)
        return {"request_id": request_id}
    if len(args) > 1 and isinstance(args[1], int):
        return {"seq_id": args[1]}
    return {}


class LayerTracer:
    """Wraps every entry point in :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.tracer = Tracer(sink=BufferedSink())
        self._stack: List[int] = []
        self._next_id = 0
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, owner, attr: str):
        original = owner.__dict__[attr]
        label = f"{getattr(owner, '__name__', '')}.{attr}".split(".")[-2:]
        name = ".".join(label)
        tracer, stack = self.tracer, self._stack

        def enter():
            span = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span)
            return span, parent, time.perf_counter()

        def leave(span, parent, t0, args, result):
            dur = time.perf_counter() - t0
            stack.pop()
            tracer.complete(
                layer,
                "bench",
                name,
                ts=t0,
                dur=dur,
                cat=layer,
                args={
                    "span": span,
                    "parent": parent,
                    **_request_of(name, args, result),
                },
            )

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span, parent, t0 = enter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    leave(span, parent, t0, args, result)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span, parent, t0 = enter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    leave(span, parent, t0, args, result)

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def install(self) -> "LayerTracer":
        for layer, owner, attrs in TARGETS:
            for attr in attrs:
                self._wrap(layer, owner, attr)
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


class Spans:
    """Recorded spans with parent links resolved, for the metrics."""

    def __init__(self, events) -> None:
        self.events = list(events)
        self.by_id = {ev.args["span"]: ev for ev in self.events}
        self.child_time: Dict[int, float] = {}
        for ev in self.events:
            parent = ev.args["parent"]
            if parent is not None:
                self.child_time[parent] = (
                    self.child_time.get(parent, 0.0) + ev.dur_s
                )

    def self_time(self, ev) -> float:
        return ev.dur_s - self.child_time.get(ev.args["span"], 0.0)

    def named(self, *names: str, top: bool = False) -> list:
        out = [ev for ev in self.events if ev.name in names]
        if top:
            out = [ev for ev in out if self.parent_layer(ev) != ev.cat]
        return out

    def parent_layer(self, ev) -> Optional[str]:
        parent = ev.args["parent"]
        return None if parent is None else self.by_id[parent].cat

    def within(self, t0: float, t1: float) -> "Spans":
        return Spans(
            ev for ev in self.events if ev.ts_s >= t0 and ev.ts_s + ev.dur_s <= t1
        )

    def layer_table(self, wall_s: float) -> Dict[str, float]:
        """Self seconds per layer plus ``unattributed``; sums to wall."""
        table = {layer: 0.0 for layer in LAYERS}
        covered = 0.0
        for ev in self.events:
            table[ev.cat] += self.self_time(ev)
            if ev.args["parent"] is None:
                covered += ev.dur_s
        table["unattributed"] = wall_s - covered
        return table
