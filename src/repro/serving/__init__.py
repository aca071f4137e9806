"""Continuous-batching serving layer over the Token-Picker kernel.

The paper's argument (Fig. 2 -> Fig. 10) is that certified KV pruning pays
off *in batched serving*, where the shared weight traffic is amortised and
per-sequence KV traffic dominates the decode step.  This package is that
serving context:

* :class:`~repro.serving.engine.ServingEngine` — owns N concurrent
  sequences and runs one fused ragged-batch decode step across all of
  them (continuous admission/retirement, bit-identical pruning decisions
  to stepping sequences alone).
* :class:`~repro.serving.kv_pool.KVCachePool` — block-pooled (paged) KV
  storage with per-sequence logical views, frozen per-sequence
  quantization scales and eviction accounting.
* :class:`~repro.serving.scheduler.Scheduler` — FIFO continuous-batching
  admission (with an optional small-request head-of-line bypass and a
  per-step prefill token budget).
  Chunked prefill interleaves prompt ingestion with decode
  (decode-priority) so long prompts cannot stall co-resident decodes;
  outputs stay bit-identical to monolithic prefill.
* :mod:`~repro.serving.request` — request/response dataclasses with
  per-request traffic and latency stats.
"""

from repro.serving.engine import (
    EngineStepReport,
    FailoverHarvest,
    PreemptedExport,
    SequenceStepView,
    ServingEngine,
    VictimCandidate,
)
from repro.serving.frontend import (
    AsyncStreamingFrontend,
    ControlSample,
    OverloadController,
    RequestStream,
    SLOConfig,
    ShedError,
    TokenEvent,
)
from repro.serving.kv_pool import (
    KVCachePool,
    PoolExhausted,
    SequenceScales,
    SwappedSequence,
    count_clips,
    encode_kv_rows,
    freeze_scales,
)
from repro.serving.request import (
    CompletedRequest,
    GenerationRequest,
    RequestState,
    RequestStats,
    replayable_step_source,
    synthetic_request,
    synthetic_step_source,
)
from repro.serving.scheduler import Scheduler

__all__ = [
    "AsyncStreamingFrontend",
    "CompletedRequest",
    "ControlSample",
    "EngineStepReport",
    "FailoverHarvest",
    "GenerationRequest",
    "OverloadController",
    "PreemptedExport",
    "RequestStream",
    "SLOConfig",
    "ShedError",
    "TokenEvent",
    "KVCachePool",
    "PoolExhausted",
    "RequestState",
    "RequestStats",
    "Scheduler",
    "SequenceScales",
    "SequenceStepView",
    "ServingEngine",
    "SwappedSequence",
    "VictimCandidate",
    "count_clips",
    "encode_kv_rows",
    "freeze_scales",
    "replayable_step_source",
    "synthetic_request",
    "synthetic_step_source",
]
