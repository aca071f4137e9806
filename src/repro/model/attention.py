"""Attention backends for generation-phase evaluation.

A backend is a callable ``(layer, q (H, dh), keys (H, t, dh),
values (H, t, dh)) -> (H, dh)`` plugged into
:meth:`repro.model.transformer.TinyGPT.decode_step`.  Each backend records
the off-chip traffic it would generate, in bits, so perplexity and memory
accounting come from the *same* run:

* :class:`ExactAttentionBackend` — the baseline: all K and V fetched.
* :class:`TokenPickerBackend` — the paper's method (breadth schedule,
  vectorised over heads).
* :class:`EstimationOnlyBackend` — prunes V by exact probabilities but
  streams all of K (the "probability estimation without out-of-order
  on-demand K" design point of Fig. 10).
* :class:`FixedRatioBackend` — SpAtten-style local ranking: keeps a fixed
  fraction of tokens with the highest probabilities (the strategy the paper
  argues is mis-matched to instance variability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import QuantConfig, TokenPickerConfig
from repro.core.pruning import PruneStats, token_picker_attention_batched


@dataclass
class AccessCounter:
    """Accumulated K/V traffic of a backend, in bits."""

    k_bits: int = 0
    v_bits: int = 0
    baseline_k_bits: int = 0
    baseline_v_bits: int = 0
    instances: int = 0
    tokens_seen: int = 0
    tokens_kept: int = 0

    def add(self, stats: PruneStats, instances: int) -> None:
        """Accumulate one call's accounting, covering ``instances``
        attention instances (heads)."""
        self.k_bits += stats.k_bits_fetched
        self.v_bits += stats.v_bits_fetched
        self.baseline_k_bits += stats.baseline_k_bits
        self.baseline_v_bits += stats.baseline_v_bits
        self.instances += instances
        self.tokens_seen += stats.n_tokens
        self.tokens_kept += stats.n_kept

    @property
    def total_bits(self) -> int:
        return self.k_bits + self.v_bits

    @property
    def baseline_total_bits(self) -> int:
        return self.baseline_k_bits + self.baseline_v_bits

    @property
    def k_reduction(self) -> float:
        return self.baseline_k_bits / self.k_bits if self.k_bits else math.inf

    @property
    def v_pruning_ratio(self) -> float:
        return self.baseline_v_bits / self.v_bits if self.v_bits else math.inf

    @property
    def total_reduction(self) -> float:
        return (
            self.baseline_total_bits / self.total_bits if self.total_bits else math.inf
        )

    @property
    def keep_fraction(self) -> float:
        return self.tokens_kept / self.tokens_seen if self.tokens_seen else 1.0


def _exact_heads(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
                 bias: Optional[np.ndarray] = None) -> np.ndarray:
    scores = np.einsum("htd,hd->ht", keys, q) / math.sqrt(q.shape[-1])
    if bias is not None:
        scores = scores + bias
    m = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - m)
    probs = e / e.sum(axis=1, keepdims=True)
    return np.einsum("ht,htd->hd", probs, values)


class ExactAttentionBackend:
    """Baseline: exact attention; every K and V vector is fetched."""

    def __init__(self, quant: Optional[QuantConfig] = None) -> None:
        self.quant = quant or QuantConfig()
        self.counter = AccessCounter()

    def __call__(self, layer: int, q, keys, values, bias=None) -> np.ndarray:
        h, t, dh = keys.shape
        bits = h * t * dh * self.quant.total_bits
        c = self.counter
        c.k_bits += bits
        c.v_bits += bits
        c.baseline_k_bits += bits
        c.baseline_v_bits += bits
        c.instances += h
        c.tokens_seen += h * t
        c.tokens_kept += h * t
        return _exact_heads(q, keys, values, bias)


class TokenPickerBackend:
    """The paper's method as a drop-in attention backend."""

    def __init__(self, config: Optional[TokenPickerConfig] = None) -> None:
        self.config = config or TokenPickerConfig()
        if self.config.schedule != "breadth":
            raise ValueError("the batched backend requires the breadth schedule")
        self.counter = AccessCounter()

    def __call__(self, layer: int, q, keys, values, bias=None) -> np.ndarray:
        result = token_picker_attention_batched(
            q, keys, values, self.config, score_bias=bias
        )
        self.counter.add(result.stats(), keys.shape[0])
        return result.outputs


class EstimationOnlyBackend:
    """Prune V on exact probabilities; stream all of K.

    Without on-demand chunked K access (no out-of-order engine) the design
    must fetch every K vector in full; only the ``x V`` traffic shrinks.
    """

    def __init__(
        self,
        threshold: float = 1e-3,
        quant: Optional[QuantConfig] = None,
        prompt_guard: int = 1,
    ) -> None:
        if not 0 < threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        self.threshold = threshold
        self.quant = quant or QuantConfig()
        self.prompt_guard = prompt_guard
        self.counter = AccessCounter()

    def __call__(self, layer: int, q, keys, values, bias=None) -> np.ndarray:
        h, t, dh = keys.shape
        scores = np.einsum("htd,hd->ht", keys, q) / math.sqrt(dh)
        if bias is not None:
            scores = scores + bias
        m = scores.max(axis=1, keepdims=True)
        e = np.exp(scores - m)
        probs = e / e.sum(axis=1, keepdims=True)
        kept = probs > self.threshold
        if self.prompt_guard > 0:
            kept[:, max(0, t - self.prompt_guard):] = True
        out = np.einsum("ht,htd->hd", probs * kept, values)
        # renormalise over the kept support (step-1 softmax over survivors)
        denom = (probs * kept).sum(axis=1, keepdims=True)
        out = out / np.clip(denom, 1e-300, None)

        word = dh * self.quant.total_bits
        c = self.counter
        c.k_bits += h * t * word
        c.v_bits += int(kept.sum()) * word
        c.baseline_k_bits += h * t * word
        c.baseline_v_bits += h * t * word
        c.instances += h
        c.tokens_seen += h * t
        c.tokens_kept += int(kept.sum())
        return out


class FixedRatioBackend:
    """SpAtten-style fixed-ratio token ranking (local, per instance).

    Keeps the ``keep_ratio`` fraction of tokens with the largest exact
    probabilities regardless of how many are actually important — the
    behaviour Fig. 3 shows is mis-calibrated across instances.
    """

    def __init__(
        self, keep_ratio: float, quant: Optional[QuantConfig] = None
    ) -> None:
        if not 0 < keep_ratio <= 1:
            raise ValueError("keep_ratio must be in (0, 1]")
        self.keep_ratio = keep_ratio
        self.quant = quant or QuantConfig()
        self.counter = AccessCounter()

    def __call__(self, layer: int, q, keys, values, bias=None) -> np.ndarray:
        h, t, dh = keys.shape
        scores = np.einsum("htd,hd->ht", keys, q) / math.sqrt(dh)
        if bias is not None:
            scores = scores + bias
        m = scores.max(axis=1, keepdims=True)
        e = np.exp(scores - m)
        probs = e / e.sum(axis=1, keepdims=True)
        n_keep = max(1, int(math.ceil(self.keep_ratio * t)))
        kept = np.zeros((h, t), dtype=bool)
        top = np.argpartition(-probs, n_keep - 1, axis=1)[:, :n_keep]
        np.put_along_axis(kept, top, True, axis=1)
        masked = probs * kept
        out = np.einsum("ht,htd->hd", masked, values)
        out = out / masked.sum(axis=1, keepdims=True)

        word = dh * self.quant.total_bits
        c = self.counter
        c.k_bits += h * t * word
        c.v_bits += h * n_keep * word
        c.baseline_k_bits += h * t * word
        c.baseline_v_bits += h * t * word
        c.instances += h
        c.tokens_seen += h * t
        c.tokens_kept += h * n_keep
        return out
