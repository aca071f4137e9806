"""Streaming decode-session API with prompt-phase scale calibration.

The functional entry points quantize with per-call oracle scales (the max
|value| of the tensors they are handed).  Real hardware cannot rescan the
whole KV cache every step: scales are fixed when the prompt phase loads
K/V on-chip (Sec. 4) and reused for every generated token.
:class:`TokenPickerSession` models that deployment for a *single* sequence
whose KV cache the caller owns:

* :meth:`observe_prompt` calibrates per-head Q/K/V scales from the prompt
  (widened by a safety factor for headroom),
* :meth:`step` runs certified pruning for one decode step with the frozen
  scales, accumulating traffic statistics across the whole generation,
* values outside the calibrated range saturate, and the session counts
  those clip events across the full Q/K/V the caller supplies each step
  — the observable that tells a deployment its calibration window was
  too narrow.

Each step encodes the supplied cache with the serving pool's encoder
(:func:`repro.serving.kv_pool.encode_kv_rows`) into a private float64
arena reused across steps, and makes one call of the same fused arena
kernel the serving engine runs.  Results follow the kernel's bound-score
contract against :func:`~repro.core.pruning.
token_picker_attention_batched` with the session's frozen scales: kept
sets, fetched chunks, probabilities, outputs and log denominators are
bit-identical, kept tokens' ``scores`` are exact, and a pruned token's
``scores`` entry is its certified upper bound (``>=`` the exact score).
Multi-sequence deployments should use
:class:`repro.serving.engine.ServingEngine` — it runs one fused step
across all sequences instead of one kernel call per session.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import TokenPickerConfig
from repro.core.pruning import (
    BatchedPickerResult,
    KernelScratch,
    token_picker_attention_ragged,
)
from repro.model.attention import AccessCounter
from repro.serving.kv_pool import (
    SequenceScales,
    count_clips,
    encode_kv_rows,
    freeze_scales,
)
from repro.serving.request import RequestStats

#: Back-compat alias: frozen per-head quantization scales (set at prompt
#: time).  The canonical definition lives with the KV pool, which freezes
#: one per pooled sequence.
SessionScales = SequenceScales


class TokenPickerSession:
    """Per-sequence streaming state for generation-phase pruning."""

    def __init__(
        self,
        config: Optional[TokenPickerConfig] = None,
        safety_factor: float = 1.25,
    ) -> None:
        if safety_factor < 1.0:
            raise ValueError("safety_factor must be >= 1 (headroom only)")
        config = config or TokenPickerConfig()
        if config.schedule != "breadth":
            raise ValueError("sessions use the breadth schedule (hardware order)")
        self.config = config
        self.safety_factor = safety_factor
        # one stats record for the session's whole lifetime: the counter
        # object identity is stable from construction (callers may hold a
        # reference), and recalibrations keep accumulating into it
        self._stats = RequestStats()
        self.scales: Optional[SessionScales] = None
        self.steps = 0
        self._k_arena = np.empty((0, 0, 0))
        self._v_arena = np.empty((0, 0, 0))
        self._scratch = KernelScratch()

    # ------------------------------------------------------------ calibration
    def observe_prompt(
        self, keys: np.ndarray, values: np.ndarray, queries: Optional[np.ndarray] = None
    ) -> SessionScales:
        """Fix per-head scales from the prompt-phase tensors.

        ``keys``/``values``: (H, t, d); ``queries``: optional (H, t, d) —
        when absent, K statistics stand in for Q (they share the residual
        stream's magnitude at calibration quality).  Calling it again
        recalibrates; traffic and clip statistics keep accumulating.
        """
        self.scales = freeze_scales(
            keys,
            values,
            self.config.quant,
            self.safety_factor,
            queries=queries,
        )
        self._stats.prompt_tokens = np.asarray(keys).shape[1]
        return self.scales

    # ------------------------------------------------------------------ decode
    def _arena_rows(self, n_tokens: int, n_heads: int, head_dim: int):
        """(n_tokens, H*C, d) / (n_tokens, H, d) views of the private arena,
        grown by doubling so a decode loop reallocates O(log t) times."""
        k_heads = n_heads * self.config.quant.n_chunks
        if self._k_arena.shape[1:] != (k_heads, head_dim) or (
            self._k_arena.shape[0] < n_tokens
        ):
            cap = max(n_tokens, 2 * self._k_arena.shape[0], 1)
            self._k_arena = np.empty((cap, k_heads, head_dim))
            self._v_arena = np.empty((cap, n_heads, head_dim))
        return self._k_arena[:n_tokens], self._v_arena[:n_tokens]

    def step(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        score_bias: Optional[np.ndarray] = None,
    ) -> BatchedPickerResult:
        """Pruned attention for one decode step with the frozen scales.

        ``q``: (H, d); ``keys``/``values``: (H, t, d); ``score_bias``: an
        optional (H, t) known additive score term.  Requires
        :meth:`observe_prompt` first.
        """
        if self.scales is None:
            raise RuntimeError("call observe_prompt before step")
        q, keys, values = (
            np.asarray(x, dtype=np.float64) for x in (q, keys, values)
        )
        n_heads = self.scales.k_scale.shape[0]
        if (
            q.ndim != 2
            or q.shape[0] != n_heads
            or keys.ndim != 3
            or keys.shape[0] != n_heads
            or keys.shape[2] != q.shape[1]
            or values.shape != keys.shape
        ):
            raise ValueError(
                f"q must be ({n_heads}, d) and keys/values ({n_heads}, t, d); "
                f"got {q.shape}, {keys.shape}, {values.shape}"
            )
        quant, scales = self.config.quant, self.scales
        for x, scale in (
            (q, scales.q_scale),
            (keys, scales.k_scale),
            (values, scales.v_scale),
        ):
            self._stats.clip_events += count_clips(x, scale, quant)
        _, t, head_dim = keys.shape
        k_rows, v_rows = self._arena_rows(t, n_heads, head_dim)
        encode_kv_rows(
            keys.transpose(1, 0, 2),
            values.transpose(1, 0, 2),
            scales.k_scale[None],
            scales.v_scale[None],
            quant,
            k_rows,
            v_rows,
        )
        result = token_picker_attention_ragged(
            q[None],
            self.config,
            k_plane_arena=k_rows,
            segments=np.array([[0, t]]),
            q_scales=scales.q_scale[None],
            k_scales=scales.k_scale[None],
            v_arena=v_rows,
            score_bias=None if score_bias is None else [score_bias],
            scratch=self._scratch,
        ).results[0]
        self._stats.counter.add(result.stats(), n_heads)
        self.steps += 1
        return result

    # -------------------------------------------------------------- accounting
    @property
    def counter(self) -> AccessCounter:
        """Accumulated K/V traffic of this sequence, in bits.

        The same object for the session's whole lifetime — safe to hold a
        reference across :meth:`observe_prompt` recalibrations.
        """
        return self._stats.counter

    @property
    def clip_events(self) -> int:
        """Elements that saturated against the frozen calibration window
        across the full Q/K/V fetch path."""
        return self._stats.clip_events

    @property
    def clip_rate(self) -> float:
        """Clipped elements per token seen (calibration-quality signal)."""
        return self._stats.clip_rate
