"""The Token-Picker algorithm (Sec. 3): certified token pruning.

Two functionally-equivalent schedules are provided:

* ``depth`` — the sequential reference: tokens are examined one at a time in
  the configured processing order; each token's chunks are fetched until it
  is either pruned or fully known.  Mirrors a blocking (in-order) pipeline
  and is the easiest implementation to audit.
* ``breadth`` — chunk *rounds* across all tokens: round 1 evaluates chunk 0
  of every token (every first chunk must be fetched regardless), survivors
  proceed to round 2, and so on.  This is the steady-state order the
  out-of-order hardware converges to under uniform DRAM latency, and it is
  fully vectorised (used for perplexity evaluation and large sweeps).

Both satisfy the safety property (tested exhaustively): every pruned
token's *true* softmax probability is at most ``thr``.

The module also implements ``exact_threshold_pruning`` — pruning on the
exact probabilities once all of K is on-chip — which models the
"estimation-only" design point (prunes V but streams all of K; the paper's
ToPick-V / Fig. 10 intermediate configuration).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import QuantConfig, TokenPickerConfig
from repro.core.estimator import DenominatorAggregator, PruneRule
from repro.core.margins import margin_pairs, score_bounds
from repro.core.ordering import processing_order
from repro.core.quantization import (
    QuantizedTensor,
    chunk_plane_values,
    compute_scale,
    quantize,
)
from repro.core.score_backend import resolve_backend
from repro.utils.numerics import softmax


@dataclass(frozen=True)
class PruneStats:
    """Memory-access accounting for one attention instance.

    Bits are counted for the K/V *fetch path* only (the quantity the paper's
    Figs. 8-9 normalise): K is streamed in ``chunk_bits`` slices, V in full
    ``total_bits`` words, both over ``head_dim`` elements per token.
    """

    n_tokens: int
    n_kept: int
    k_chunks_fetched: int
    v_vectors_fetched: int
    head_dim: int
    quant: QuantConfig

    @property
    def n_pruned(self) -> int:
        return self.n_tokens - self.n_kept

    @property
    def k_bits_fetched(self) -> int:
        return self.k_chunks_fetched * self.head_dim * self.quant.chunk_bits

    @property
    def v_bits_fetched(self) -> int:
        return self.v_vectors_fetched * self.head_dim * self.quant.total_bits

    @property
    def baseline_k_bits(self) -> int:
        return self.n_tokens * self.head_dim * self.quant.total_bits

    @property
    def baseline_v_bits(self) -> int:
        return self.n_tokens * self.head_dim * self.quant.total_bits

    @property
    def total_bits_fetched(self) -> int:
        return self.k_bits_fetched + self.v_bits_fetched

    @property
    def baseline_total_bits(self) -> int:
        return self.baseline_k_bits + self.baseline_v_bits

    @property
    def v_pruning_ratio(self) -> float:
        """Baseline V transfers over fetched V transfers (paper: 12.1x)."""
        if self.v_vectors_fetched == 0:
            return math.inf
        return self.n_tokens / self.v_vectors_fetched

    @property
    def k_reduction(self) -> float:
        """Baseline K bits over fetched K bits (paper: 1.45x)."""
        if self.k_bits_fetched == 0:
            return math.inf
        return self.baseline_k_bits / self.k_bits_fetched

    @property
    def total_reduction(self) -> float:
        """Total KV-bit reduction (paper: 2.57x)."""
        if self.total_bits_fetched == 0:
            return math.inf
        return self.baseline_total_bits / self.total_bits_fetched

    def merged(self, other: "PruneStats") -> "PruneStats":
        """Aggregate accounting across instances (same format/dim)."""
        if other.quant != self.quant or other.head_dim != self.head_dim:
            raise ValueError("cannot merge stats with different formats")
        return PruneStats(
            n_tokens=self.n_tokens + other.n_tokens,
            n_kept=self.n_kept + other.n_kept,
            k_chunks_fetched=self.k_chunks_fetched + other.k_chunks_fetched,
            v_vectors_fetched=self.v_vectors_fetched + other.v_vectors_fetched,
            head_dim=self.head_dim,
            quant=self.quant,
        )


@dataclass
class TokenPickerResult:
    """Full outcome of pruned attention for one (query, K, V) instance."""

    kept: np.ndarray  # bool (t,)
    chunks_fetched: np.ndarray  # int (t,), in [1, n_chunks]
    scores: np.ndarray  # float (t,) exact scaled scores of quantized q.k
    probs: np.ndarray  # float (t,) softmax over kept tokens, 0 elsewhere
    output: Optional[np.ndarray]  # (d,) attention output, None if V absent
    stats: PruneStats
    log_denominator: float  # ln(D) at the end of step 0
    trace: Dict[str, np.ndarray] = field(default_factory=dict)


def _quantize_operands(
    q: np.ndarray,
    keys: np.ndarray,
    quant: QuantConfig,
    q_scale: Optional[float],
    k_scale: Optional[float],
):
    """Quantize q per-vector and K per-tensor; return codes and score scale."""
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"q must be 1-D, got {q.shape}")
    if keys.ndim != 2 or keys.shape[1] != q.shape[0]:
        raise ValueError(f"keys must be (t, {q.shape[0]}), got {keys.shape}")
    qs = float(q_scale) if q_scale is not None else float(compute_scale(q, quant))
    ks = float(k_scale) if k_scale is not None else float(compute_scale(keys, quant))
    q_codes = quantize(q, quant, scale=qs).values.astype(np.int64)
    k_codes = quantize(keys, quant, scale=ks).values.astype(np.int64)
    head_dim = q.shape[0]
    score_scale = qs * ks / math.sqrt(head_dim)
    return q_codes, k_codes, score_scale


def _chunk_score_table(
    q_codes: np.ndarray, k_codes: np.ndarray, quant: QuantConfig
) -> np.ndarray:
    """Cumulative partial integer scores ``ps[i, b]`` for b = 1..n_chunks.

    ``ps[i, b-1]`` is the dot product of q with the first ``b`` chunks of
    key ``i`` (unknown bits zero).  Column ``n_chunks - 1`` is the exact
    integer dot product.
    """
    planes = chunk_plane_values(k_codes, quant)  # (t, d, C)
    contrib = np.einsum("tdc,d->tc", planes, q_codes)
    return np.cumsum(contrib, axis=1)


def token_picker_scores(
    q: np.ndarray,
    keys: np.ndarray,
    config: TokenPickerConfig,
    q_scale: Optional[float] = None,
    k_scale: Optional[float] = None,
    collect_trace: bool = False,
    score_bias: Optional[np.ndarray] = None,
) -> TokenPickerResult:
    """Run step 0 (score computation + certified pruning) for one query.

    Returns a :class:`TokenPickerResult` with ``output=None`` (use
    :func:`token_picker_attention` to also perform step 1).  ``scores``
    holds the exact scaled scores of the *quantized* operands for every
    token — pruned tokens' scores are still reported for analysis, but the
    algorithm never fetched their remaining chunks.

    ``score_bias`` is an optional known additive score term per token
    (e.g. an ALiBi distance bias).  It travels with the query — no DRAM
    traffic — and shifts both score bounds equally, so the certificate
    ``p'' >= p`` is unchanged.
    """
    quant = config.quant
    n_tokens = keys.shape[0] if keys.ndim == 2 else 0
    head_dim = int(np.asarray(q).shape[-1])
    bias = _check_bias(score_bias, n_tokens)
    if n_tokens == 0:
        empty_stats = PruneStats(0, 0, 0, 0, head_dim, quant)
        return TokenPickerResult(
            kept=np.zeros(0, dtype=bool),
            chunks_fetched=np.zeros(0, dtype=np.int64),
            scores=np.zeros(0),
            probs=np.zeros(0),
            output=None,
            stats=empty_stats,
            log_denominator=-np.inf,
        )

    q_codes, k_codes, score_scale = _quantize_operands(
        q, keys, quant, q_scale, k_scale
    )
    ps = _chunk_score_table(q_codes, k_codes, quant)  # (t, C) cumulative
    margins = margin_pairs(q_codes, quant)
    guard = _guard_mask(n_tokens, config.prompt_guard)

    if config.schedule == "depth":
        kept, chunks_fetched, log_den, trace = _run_depth(
            ps, margins, guard, config, score_scale, collect_trace, bias
        )
    else:
        kept, chunks_fetched, log_den, trace = _run_breadth(
            ps, margins, guard, config, score_scale, collect_trace, bias
        )

    exact_scores = ps[:, -1].astype(np.float64) * score_scale + bias
    probs = _renormalised_probs(exact_scores, kept)
    stats = PruneStats(
        n_tokens=n_tokens,
        n_kept=int(kept.sum()),
        k_chunks_fetched=int(chunks_fetched.sum()),
        v_vectors_fetched=int(kept.sum()),
        head_dim=head_dim,
        quant=quant,
    )
    return TokenPickerResult(
        kept=kept,
        chunks_fetched=chunks_fetched,
        scores=exact_scores,
        probs=probs,
        output=None,
        stats=stats,
        log_denominator=log_den,
        trace=trace,
    )


def _guard_mask(n_tokens: int, prompt_guard: int) -> np.ndarray:
    """Boolean mask of tokens that may never be pruned (most recent ones)."""
    guard = np.zeros(n_tokens, dtype=bool)
    if prompt_guard > 0:
        guard[max(0, n_tokens - prompt_guard):] = True
    return guard


def _check_bias(score_bias: Optional[np.ndarray], n_tokens: int) -> np.ndarray:
    """Validate/normalise a per-token score bias (zeros when absent)."""
    if score_bias is None:
        return np.zeros(n_tokens)
    bias = np.asarray(score_bias, dtype=np.float64)
    if bias.shape != (n_tokens,):
        raise ValueError(
            f"score_bias must have shape ({n_tokens},), got {bias.shape}"
        )
    return bias


def _run_depth(
    ps: np.ndarray,
    margins,
    guard: np.ndarray,
    config: TokenPickerConfig,
    score_scale: float,
    collect_trace: bool,
    bias: np.ndarray,
):
    """Sequential reference: one token at a time, chunk by chunk."""
    n_tokens, n_chunks = ps.shape
    rule = PruneRule(config.log_threshold)
    dag = DenominatorAggregator()
    kept = np.zeros(n_tokens, dtype=bool)
    chunks_fetched = np.zeros(n_tokens, dtype=np.int64)
    order = processing_order(n_tokens, config.order)
    ub_trace = np.full(n_tokens, np.nan) if collect_trace else None

    for token in order:
        pruned = False
        for b in range(1, n_chunks + 1):
            chunks_fetched[token] = b
            s_min_i, s_max_i = score_bounds(ps[token, b - 1], b, margins)
            s_min = float(s_min_i) * score_scale + bias[token]
            s_max = float(s_max_i) * score_scale + bias[token]
            if config.include_self_in_denominator:
                dag.submit(int(token), s_min)
                decision = rule.check(s_max, dag.log_denominator)
            else:
                decision = rule.check(s_max, dag.log_denominator)
                dag.submit(int(token), s_min)
            if collect_trace and b == 1:
                ub_trace[token] = decision.log_upper_bound
            if decision.pruned and not guard[token]:
                pruned = True
                break
        if not pruned:
            kept[token] = True

    trace = {}
    if collect_trace:
        trace["log_upper_bound_first_chunk"] = ub_trace
    return kept, chunks_fetched, dag.log_denominator, trace


def _run_breadth(
    ps: np.ndarray,
    margins,
    guard: np.ndarray,
    config: TokenPickerConfig,
    score_scale: float,
    collect_trace: bool,
    bias: np.ndarray,
):
    """Vectorised chunk rounds (the out-of-order hardware's steady state).

    Round ``b``: tokens still alive fetch their ``b``-th chunk, the
    denominator absorbs every tightened lower bound, and the prune predicate
    is applied to all alive tokens at once.
    """
    n_tokens, n_chunks = ps.shape
    log_thr = config.log_threshold
    s_min = ps * score_scale + margins.mins[1:][None, :] * score_scale + bias[:, None]
    s_max = ps * score_scale + margins.maxs[1:][None, :] * score_scale + bias[:, None]

    alive = np.ones(n_tokens, dtype=bool)
    chunks_fetched = np.zeros(n_tokens, dtype=np.int64)
    current_lb = np.full(n_tokens, -np.inf)
    ub_trace = np.full(n_tokens, np.nan) if collect_trace else None

    # ln(D) = logsumexp over every token's current lower bound.  A token
    # pruned in an earlier round keeps the bound it died with, so the sum
    # splits into a *frozen* part (dead tokens, absorbed once at death)
    # and the alive part, whose bounds are the only ones that tightened
    # this round — recomputing only the latter turns the per-round
    # denominator from O(n_tokens) into O(alive).
    log_den = -np.inf
    frozen_den = -np.inf  # logsumexp over dead tokens' final lower bounds
    for b in range(n_chunks):
        chunks_fetched[alive] = b + 1
        current_lb[alive] = s_min[alive, b]
        log_den = float(
            np.logaddexp(frozen_den, _logsumexp_1d(current_lb[alive]))
        )
        prune_now = alive & ((s_max[:, b] - log_den) <= log_thr) & ~guard
        if collect_trace and b == 0:
            ub_trace[:] = s_max[:, 0] - log_den
        if prune_now.any():
            frozen_den = float(
                np.logaddexp(frozen_den, _logsumexp_1d(current_lb[prune_now]))
            )
        alive = alive & ~prune_now
        if not alive.any():
            break

    trace = {}
    if collect_trace:
        trace["log_upper_bound_first_chunk"] = ub_trace
    return alive, chunks_fetched, float(log_den), trace


def _logsumexp_1d(x: np.ndarray) -> float:
    finite = x[np.isfinite(x)]
    if finite.size == 0:
        return -np.inf
    m = finite.max()
    return float(m + np.log(np.exp(finite - m).sum()))


_ZERO_INDEX = np.array([0], dtype=np.intp)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Whole-row sums with ``np.add.reduceat``'s deterministic fold.

    ``ndarray.sum`` uses pairwise summation whose grouping depends on the
    reduction length, so a sequence's reductions would come out different
    bits depending on how the batch around it is packed.  ``reduceat``
    applies one left-to-right fold per slice that depends only on the
    slice's own values, which is what lets the ragged kernel reduce many
    sequences in one call (`np.add.reduceat` over segment boundaries) and
    still match this rectangular kernel bit for bit.
    """
    return np.add.reduceat(x, _ZERO_INDEX, axis=1)[:, 0]


def _grouped_softmax(flat_scores: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Renormalised softmax over consecutive groups of a flat score array.

    ``bounds`` is a (G + 1,) cumulative-boundary array with ``bounds[-1]
    == flat_scores.size``; empty groups are allowed.  Group max / sum use
    the same ``reduceat`` fold as :func:`_row_sums`, so each group's
    probabilities depend only on its own scores.  Reductions run over the
    *non-empty* groups only: their start indices are strictly increasing
    and consecutive non-empty groups abut, so every reduceat slice covers
    exactly one group's elements — appending sentinel elements instead
    would change the fold's blocking for the trailing group.
    """
    if flat_scores.size == 0:
        return flat_scores
    starts = bounds[:-1]
    counts = np.diff(bounds)
    nonempty = counts > 0
    starts_ne = starts[nonempty]
    gmax = np.zeros(counts.shape)
    gmax[nonempty] = np.maximum.reduceat(flat_scores, starts_ne)
    e = np.exp(flat_scores - np.repeat(gmax, counts))
    gsum = np.ones(counts.shape)
    gsum[nonempty] = np.add.reduceat(e, starts_ne)
    return e / np.repeat(gsum, counts)


def _grouped_weighted_v(
    flat_probs: np.ndarray, v_rows: np.ndarray, bounds: np.ndarray, head_dim: int
) -> np.ndarray:
    """Per-group sums of ``p_i * v_i`` over kept tokens — the step-1 AV.

    ``flat_probs`` (n,) and ``v_rows`` (n, d) hold the *kept* tokens only
    (group-major, token order preserved), ``bounds`` their (G + 1,)
    cumulative boundaries.  Pruned tokens carry probability exactly zero:
    adding a zero term to a left fold cannot change its value (only,
    at most, the sign of a zero result, which compares equal), so
    reducing the kept subset matches the dense reduction bit-for-bit
    while touching ~keep-fraction of the memory.  Groups reduce with the
    same ``reduceat`` fold as :func:`_row_sums`.
    """
    out = np.zeros((len(bounds) - 1, head_dim))
    if flat_probs.size == 0:
        return out
    weighted = flat_probs[:, None] * v_rows
    counts = np.diff(bounds)
    nonempty = counts > 0
    out[nonempty] = np.add.reduceat(weighted, bounds[:-1][nonempty], axis=0)
    return out


class KernelScratch:
    """Reusable backing store for the fused ragged kernel's work arrays.

    The serving engine calls the ragged kernel every decode step with
    slightly-growing shapes, and the (tokens, heads)-sized temporaries
    dominated the step's allocator traffic.  A scratch object hands out
    views of amortised-doubling flat buffers keyed by role; reuse never
    changes results because every array handed out is fully overwritten
    before it is read.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, str], np.ndarray] = {}

    def take(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        dt = np.dtype(dtype)
        n = int(np.prod(shape, dtype=np.int64)) if len(shape) else 1
        key = (name, dt.str)
        buf = self._buffers.get(key)
        if buf is None or buf.size < n:
            grown = n if buf is None else max(n, 2 * buf.size)
            buf = np.empty(grown, dtype=dt)
            self._buffers[key] = buf
        return buf[:n].reshape(shape)


def _renormalised_probs(scores: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Softmax restricted to kept tokens (the hardware's step-1 softmax)."""
    probs = np.zeros_like(scores, dtype=np.float64)
    if kept.any():
        probs[kept] = softmax(scores[kept])
    return probs


def token_picker_attention(
    q: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    config: TokenPickerConfig,
    q_scale: Optional[float] = None,
    k_scale: Optional[float] = None,
    v_scale: Optional[float] = None,
    collect_trace: bool = False,
    score_bias: Optional[np.ndarray] = None,
) -> TokenPickerResult:
    """Full pruned attention: step 0 (scores + pruning) then step 1 (x V).

    V is quantized to the same fixed-point format (that is what travels over
    the DRAM bus) and only the kept tokens' V vectors are fetched and
    accumulated.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != np.asarray(keys).shape:
        raise ValueError(
            f"values shape {values.shape} must match keys shape {np.asarray(keys).shape}"
        )
    result = token_picker_scores(
        q, keys, config, q_scale=q_scale, k_scale=k_scale,
        collect_trace=collect_trace, score_bias=score_bias,
    )
    if result.stats.n_tokens == 0:
        result.output = np.zeros(np.asarray(q).shape[-1])
        return result
    vs = float(v_scale) if v_scale is not None else float(
        compute_scale(values, config.quant)
    )
    v_q = quantize(values, config.quant, scale=vs)
    result.output = result.probs @ v_q.dequantize()
    return result


def exact_threshold_pruning(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Keep mask from *exact* probabilities (estimation-only design point).

    Models the configuration that streams all of K (full precision scores
    on-chip) and uses the threshold only to skip V fetches.  This is the
    upper bound on V pruning for a given ``thr`` and the paper's
    "probability estimation without out-of-order K access" variant.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        return np.zeros(0, dtype=bool)
    m = scores.max()
    e = np.exp(scores - m)
    p = e / e.sum()
    kept = p > threshold
    if not kept.any():
        kept[int(np.argmax(scores))] = True
    return kept


@dataclass
class BatchedPickerResult:
    """Vectorised per-head results (breadth schedule).

    Arrays are stacked over heads: ``kept`` is (H, t), ``chunks_fetched``
    (H, t), ``probs`` (H, t), ``outputs`` (H, d) (zeros when values were not
    provided), ``log_denominators`` (H,).
    """

    kept: np.ndarray
    chunks_fetched: np.ndarray
    scores: np.ndarray
    probs: np.ndarray
    outputs: Optional[np.ndarray]
    log_denominators: np.ndarray
    quant: QuantConfig
    head_dim: int

    def stats(self) -> PruneStats:
        """Aggregate accounting over all heads."""
        h, t = self.kept.shape
        return PruneStats(
            n_tokens=h * t,
            n_kept=int(self.kept.sum()),
            k_chunks_fetched=int(self.chunks_fetched.sum()),
            v_vectors_fetched=int(self.kept.sum()),
            head_dim=self.head_dim,
            quant=self.quant,
        )


def token_picker_attention_batched(
    q: np.ndarray,
    keys: np.ndarray,
    values: Optional[np.ndarray],
    config: TokenPickerConfig,
    score_bias: Optional[np.ndarray] = None,
    q_scales: Optional[np.ndarray] = None,
    k_scales: Optional[np.ndarray] = None,
    v_scales: Optional[np.ndarray] = None,
) -> BatchedPickerResult:
    """Vectorised breadth-schedule Token-Picker over heads.

    ``q``: (H, d); ``keys``/``values``: (H, t, d).  Scales are per head —
    computed from the data by default, or passed explicitly as (H,) arrays
    (``q_scales``/``k_scales``/``v_scales``) when a deployment freezes them
    at calibration time (see :class:`repro.core.session.TokenPickerSession`);
    out-of-range values then saturate.
    This is the kernel the LM evaluation uses: one call per (layer,
    position) covers every head at once.  Only the breadth schedule is
    supported (it is the one the out-of-order hardware realises).
    ``score_bias`` is an optional (H, t) known additive score term (ALiBi).
    """
    if config.schedule != "breadth":
        raise ValueError("batched kernel supports only the breadth schedule")
    quant = config.quant
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if q.ndim != 2 or keys.ndim != 3 or keys.shape[0] != q.shape[0]:
        raise ValueError("q must be (H, d) and keys (H, t, d)")
    n_heads, head_dim = q.shape
    n_tokens = keys.shape[1]
    if score_bias is None:
        bias = np.zeros((n_heads, n_tokens))
    else:
        bias = np.asarray(score_bias, dtype=np.float64)
        if bias.shape != (n_heads, n_tokens):
            raise ValueError(
                f"score_bias must have shape ({n_heads}, {n_tokens}), "
                f"got {bias.shape}"
            )
    if n_tokens == 0:
        return BatchedPickerResult(
            kept=np.zeros((n_heads, 0), dtype=bool),
            chunks_fetched=np.zeros((n_heads, 0), dtype=np.int64),
            scores=np.zeros((n_heads, 0)),
            probs=np.zeros((n_heads, 0)),
            outputs=np.zeros((n_heads, head_dim)) if values is not None else None,
            log_denominators=np.full(n_heads, -np.inf),
            quant=quant,
            head_dim=head_dim,
        )

    # Per-head symmetric scales (data-derived unless frozen ones are given).
    def _head_scales(explicit, data, axes) -> np.ndarray:
        if explicit is not None:
            scales = np.asarray(explicit, dtype=np.float64)
            if scales.shape != (n_heads,) or np.any(scales <= 0):
                raise ValueError("explicit scales must be positive with shape (H,)")
            return scales
        max_abs = np.abs(data).max(axis=axes)
        return np.where(max_abs > 0, max_abs / quant.qmax, 1.0)

    q_scale = _head_scales(q_scales, q, 1)
    k_scale = _head_scales(k_scales, keys, (1, 2))
    q_codes = np.clip(
        np.rint(q / q_scale[:, None]), quant.qmin, quant.qmax
    ).astype(np.int64)
    k_codes = np.clip(
        np.rint(keys / k_scale[:, None, None]), quant.qmin, quant.qmax
    ).astype(np.int64)
    score_scale = q_scale * k_scale / math.sqrt(head_dim)  # (H,)

    from repro.core.margins import margin_pairs_batch

    planes = chunk_plane_values(k_codes, quant)  # (H, t, d, C)
    ps = np.cumsum(np.einsum("htdc,hd->htc", planes, q_codes), axis=2)
    mins, maxs = margin_pairs_batch(q_codes, quant)  # (H, C+1)

    scale3 = score_scale[:, None, None]
    s_min = ps * scale3 + mins[:, None, 1:] * scale3 + bias[:, :, None]
    s_max = ps * scale3 + maxs[:, None, 1:] * scale3 + bias[:, :, None]

    guard = _guard_mask(n_tokens, config.prompt_guard)[None, :]
    log_thr = config.log_threshold
    alive = np.ones((n_heads, n_tokens), dtype=bool)
    chunks_fetched = np.zeros((n_heads, n_tokens), dtype=np.int64)
    current_lb = np.full((n_heads, n_tokens), -np.inf)
    log_den = np.full(n_heads, -np.inf)

    for b in range(quant.n_chunks):
        np.copyto(chunks_fetched, b + 1, where=alive)
        np.copyto(current_lb, s_min[:, :, b], where=alive)
        m = current_lb.max(axis=1)
        ex = np.exp(np.clip(current_lb - m[:, None], -700.0, 0.0))
        log_den = m + np.log(_row_sums(ex))
        prune_now = alive & ((s_max[:, :, b] - log_den[:, None]) <= log_thr) & ~guard
        alive &= ~prune_now
        if not alive.any():
            break

    exact_scores = ps[:, :, -1] * scale3[:, :, 0] + bias
    probs = np.zeros_like(exact_scores)
    kept_bounds = np.zeros(n_heads + 1, dtype=np.intp)
    np.cumsum(alive.sum(axis=1), out=kept_bounds[1:])
    flat_probs = _grouped_softmax(exact_scores[alive], kept_bounds)
    probs[alive] = flat_probs

    outputs = None
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
        v_scale = _head_scales(v_scales, values, (1, 2))
        v_hat = (  # quantize-dequantized V
            np.clip(
                np.rint(values / v_scale[:, None, None]), quant.qmin, quant.qmax
            )
            * v_scale[:, None, None]
        )
        outputs = _grouped_weighted_v(
            flat_probs, v_hat[alive], kept_bounds, head_dim
        )

    return BatchedPickerResult(
        kept=alive,
        chunks_fetched=chunks_fetched,
        scores=exact_scores,
        probs=probs,
        outputs=outputs,
        log_denominators=log_den,
        quant=quant,
        head_dim=head_dim,
    )


@dataclass
class RaggedPickerResult:
    """Results of one fused ragged-batch kernel call.

    ``results[s]`` holds sequence ``s``'s per-head arrays, in the
    caller's order.  Against an independent
    :func:`token_picker_attention_batched` call on that sequence with the
    same scales (the *bound-score contract*): kept sets, chunks fetched,
    probabilities, outputs, log denominators and stats are bit-identical,
    and kept tokens' ``scores`` are the exact full-depth values, while a
    pruned token's ``scores`` entry is its certified upper bound at the
    round that pruned it (``>=`` the exact score; its remaining chunks
    are never fetched).  ``lengths`` holds the per-sequence context
    lengths.
    """

    results: list  # List[BatchedPickerResult], in the caller's order
    lengths: np.ndarray  # int (S,)
    #: alive (head, token) pairs entering each chunk round, plus the
    #: final kept-pair count in the last slot — shape (n_chunks + 1,).
    #: ``round_alive[b] - round_alive[b + 1]`` is how many pairs were
    #: decided by fetching exactly ``b + 1`` chunks, so the per-round
    #: survival fractions and the chunks-fetched histogram both derive
    #: from this one array (the serving profile prints both).  ``None``
    #: only for an all-empty batch.
    round_alive: "Optional[np.ndarray]" = None

    @property
    def n_sequences(self) -> int:
        return len(self.results)

    def stats(self) -> PruneStats:
        """Aggregate accounting over every sequence in the batch."""
        if not self.results:
            raise ValueError("empty ragged batch has no stats")
        merged = self.results[0].stats()
        for r in self.results[1:]:
            merged = merged.merged(r.stats())
        return merged


def token_picker_attention_ragged(
    qs: np.ndarray,
    config: TokenPickerConfig,
    *,
    k_plane_arena: np.ndarray,
    segments: np.ndarray,
    q_scales: np.ndarray,
    k_scales: np.ndarray,
    v_arena: Optional[np.ndarray] = None,
    score_bias: "Optional[list]" = None,
    scratch: Optional[KernelScratch] = None,
    phase_times: Optional[Dict[str, float]] = None,
) -> RaggedPickerResult:
    """Fused breadth-schedule Token-Picker over a packed KV arena.

    ``qs``: (S, H, d) — one query per sequence.  ``k_plane_arena`` is one
    token-major (T_cap, H, C, d) (or (T_cap, H*C, d)) store of
    *unshifted* MSB-first chunk digits (float32 or float64; the kernel
    applies each chunk's power-of-two positional shift after the
    contraction), ``v_arena`` an optional (T_cap, H, d) store of
    quantize-dequantized values, and ``segments`` (S, 2) rows of
    ``(offset, length)`` locating each sequence's contiguous slab.  The
    frozen per-head scales ``q_scales``/``k_scales`` are (S, H) arrays
    (the digits carry no scale); ``score_bias`` is an optional length-S
    sequence of (H, t_s) arrays (or ``None`` entries).

    This is the serving engine's hot path.  The kernel computes directly
    on views of the arena: every live sequence keeps its in-place
    offset, and the dead inter-segment gaps ride along masked, carried
    by the reduceat boundary table, so the caller appends tokens in
    place and hands over views — no per-step packing copies.
    Per-sequence reductions (denominator log-sum-exp, final softmax, V
    accumulation) run as *segment reductions* — one
    ``np.maximum.reduceat`` / ``np.add.reduceat`` pass over interleaved
    segment boundaries per round — whose per-slice fold depends only on
    the slice's own values (see :func:`_row_sums`).

    The score phase is lazy: round 1 contracts chunk 0 of every token,
    and each later round extends only the still-undecided (head, token)
    pairs, so score cost follows the alive set.  Chunk contractions are
    exact integers (float64 when ``2 * total_bits - 2 +
    bit_length(head_dim - 1) <= 52``, float32 when the digit dot also
    stays below ``2**24``, int64 otherwise), so results follow the
    bound-score contract of :class:`RaggedPickerResult` against
    :func:`token_picker_attention_batched`.

    ``scratch`` (a :class:`KernelScratch`) lets a caller reuse the
    kernel's work arrays across steps; ``phase_times`` accumulates
    per-phase wall-clock seconds under ``"score"`` (with its split
    ``"score_chunk0"`` — setup plus the full-width chunk-0 pass — and
    ``"score_refine"``), ``"prune"`` and ``"unpack"`` keys.
    """
    if config.schedule != "breadth":
        raise ValueError("ragged kernel supports only the breadth schedule")
    quant = config.quant
    timing = phase_times is not None
    sub_t = dict.fromkeys(("score_chunk0", "score_refine", "prune", "unpack"), 0.0)
    t_sub = time.perf_counter() if timing else 0.0

    def _sub(key):
        nonlocal t_sub
        if timing:
            now = time.perf_counter()
            sub_t[key] += now - t_sub
            t_sub = now

    qs = np.asarray(qs, dtype=np.float64)
    if qs.ndim != 3:
        raise ValueError(f"qs must be (S, H, d), got {qs.shape}")
    n_seqs, n_heads, head_dim = qs.shape
    n_chunks = quant.n_chunks

    k_arena = np.asarray(k_plane_arena)
    if k_arena.dtype not in (np.float32, np.float64):
        raise ValueError("k_plane_arena must hold float32/float64 chunk digits")
    if k_arena.ndim == 3:
        if k_arena.shape[1:] != (n_heads * n_chunks, head_dim):
            raise ValueError(
                f"k_plane_arena must be (T, {n_heads * n_chunks}, "
                f"{head_dim}), got {k_arena.shape}"
            )
        k_arena = k_arena.reshape(k_arena.shape[0], n_heads, n_chunks, head_dim)
    elif k_arena.ndim != 4 or k_arena.shape[1:] != (n_heads, n_chunks, head_dim):
        raise ValueError(
            f"k_plane_arena must be (T, {n_heads}, {n_chunks}, "
            f"{head_dim}), got {k_arena.shape}"
        )
    segments = np.asarray(segments, dtype=np.int64)
    if segments.shape != (n_seqs, 2):
        raise ValueError(
            f"segments must be ({n_seqs}, 2) (offset, length) rows, "
            f"got {segments.shape}"
        )
    if np.any(segments < 0) or np.any(segments.sum(axis=1) > k_arena.shape[0]):
        raise ValueError("segments must lie within the arena")
    lengths = segments[:, 1].copy()
    if v_arena is not None:
        v_arena = np.asarray(v_arena, dtype=np.float64)
        if v_arena.shape != (k_arena.shape[0], n_heads, head_dim):
            raise ValueError(
                f"v_arena must be ({k_arena.shape[0]}, {n_heads}, "
                f"{head_dim}), got {v_arena.shape}"
            )
    q_scale = np.asarray(q_scales, dtype=np.float64)
    k_scale = np.asarray(k_scales, dtype=np.float64)
    for name, sc in (("q_scales", q_scale), ("k_scales", k_scale)):
        if sc.shape != (n_seqs, n_heads) or np.any(sc <= 0):
            raise ValueError(f"{name} must be positive with shape (S, H)")
    biases = [None] * n_seqs
    if score_bias is not None:
        if len(score_bias) != n_seqs:
            raise ValueError(f"expected {n_seqs} bias arrays, got {len(score_bias)}")
        for s, b in enumerate(score_bias):
            if b is None:
                continue
            b = np.asarray(b, dtype=np.float64)
            if b.shape != (n_heads, lengths[s]):
                raise ValueError(
                    f"score_bias[{s}] must have shape ({n_heads}, {lengths[s]}),"
                    f" got {b.shape}"
                )
            biases[s] = b

    results: list = [None] * n_seqs
    # Empty contexts carry no tokens: emit the rectangular kernel's empty
    # result directly.
    for s in np.flatnonzero(lengths == 0):
        results[s] = BatchedPickerResult(
            kept=np.zeros((n_heads, 0), dtype=bool),
            chunks_fetched=np.zeros((n_heads, 0), dtype=np.int64),
            scores=np.zeros((n_heads, 0)),
            probs=np.zeros((n_heads, 0)),
            outputs=np.zeros((n_heads, head_dim)) if v_arena is not None else None,
            log_denominators=np.full(n_heads, -np.inf),
            quant=quant,
            head_dim=head_dim,
        )
    live = np.flatnonzero(lengths > 0)
    if not live.size:
        return RaggedPickerResult(results=results, lengths=lengths)

    # ---- packed geometry.  Every live sequence is one contiguous slab of
    # the arena, kept at its in-place offset; ``seg_ids`` maps slab
    # columns (ascending start) back to caller sequence indices.
    seg_ids = live[np.argsort(segments[live, 0], kind="stable")]
    starts_abs = segments[seg_ids, 0]
    ends_abs = starts_abs + segments[seg_ids, 1]
    if np.any(starts_abs[1:] < ends_abs[:-1]):
        raise ValueError("arena segments overlap")
    base = int(starts_abs[0])
    span_end = int(ends_abs[-1])
    st = starts_abs - base
    en = ends_abs - base
    n_live = len(seg_ids)
    total = span_end - base  # flat-axis extent, including arena gaps

    # Interleaved reduceat boundaries: segment i reduces at column 2*i,
    # the (possibly empty) gap after it at column 2*i + 1.  reduceat's
    # per-slice fold reads only the slice's own rows, so gap columns cost
    # their width in streamed bytes but never touch a segment's result.
    n_cols = 2 * n_live - 1
    reduce_idx = np.empty(n_cols, dtype=np.intp)
    reduce_idx[::2] = st
    reduce_idx[1::2] = en[:-1]
    widths = np.empty(n_cols, dtype=np.int64)
    widths[::2] = en - st
    widths[1::2] = st[1:] - en[:-1]
    col_seq = np.empty(n_cols, dtype=np.int64)
    col_seq[::2] = seg_ids
    col_seq[1::2] = -1
    seq_idx = np.repeat(col_seq, widths)  # (total,); -1 on arena gaps
    valid = seq_idx >= 0
    seq_clip = np.where(valid, seq_idx, 0)

    def take_buf(name, shape, dtype=np.float64):
        if scratch is not None:
            return scratch.take(name, shape, dtype)
        return np.empty(shape, dtype=dtype)

    q_codes = np.clip(
        np.rint(qs / q_scale[:, :, None]), quant.qmin, quant.qmax
    ).astype(np.int64)
    score_scale = q_scale * k_scale / math.sqrt(head_dim)  # (S, H)

    from repro.core.margins import margin_pairs_batch

    mins, maxs = margin_pairs_batch(q_codes, quant)  # (S, H, C+1)

    # Plane x query products are bounded by d * 2^(2N-2): exact in
    # float64 for every practical format (any association order yields
    # the same integer), with an int64 fallback for wider formats.
    exact_in_float = (
        2 * quant.total_bits - 2 + max(head_dim - 1, 1).bit_length() <= 52
    )
    if k_arena.dtype == np.float32:
        digit_bound = head_dim * ((1 << quant.chunk_bits) - 1) * quant.qmax
        if not (exact_in_float and digit_bound < 2 ** 24):
            raise ValueError(
                "float32 k_plane_arena requires digit contractions "
                "exact in float32 (head_dim * digit_max * qmax < 2**24)"
            )

    # ---- per-token broadcast tables, head-major (H, T).  A zero bias
    # is skipped entirely: ``x + 0.0`` can only alter the sign of a
    # zero, and the bound expressions cannot produce -0.0 (their nonzero
    # operands have magnitude >= the score scale), so skipping stays
    # bit-identical.
    ss_ht = take_buf("ss", (n_heads, total))
    np.take(score_scale.T, seq_clip, axis=1, out=ss_ht)
    bias_ht = None
    if any(b is not None for b in biases):
        bias_ht = take_buf("bias", (n_heads, total))
        bias_ht.fill(0.0)
        for i in range(n_live):
            b_arr = biases[int(seg_ids[i])]
            if b_arr is not None:
                bias_ht[:, st[i]:en[i]] = b_arr
    pos = np.arange(total)
    end_col = np.empty(n_cols, dtype=np.int64)
    end_col[::2] = en
    end_col[1::2] = total + config.prompt_guard + 1  # gaps: never guarded
    guard_t = valid & (
        pos >= np.repeat(end_col, widths) - config.prompt_guard
    )
    guard_row = guard_t[None, :]

    # ---- per-round denominator scratch, hoisted out of the chunk loop.
    # ``col_of_tok`` turns the per-column ``np.repeat`` broadcasts into
    # ``np.take`` writes into reused buffers — identical output, zero
    # allocator traffic.
    col_of_tok = np.repeat(np.arange(n_cols, dtype=np.intp), widths)
    m_cols_buf = take_buf("m_cols", (n_heads, n_cols))
    m_fix_buf = take_buf("m_fix", (n_heads, n_cols))
    den_cols_buf = take_buf("den_cols", (n_heads, n_cols))
    ld_cols_buf = take_buf("ld_cols", (n_heads, n_cols))
    ld_cols_buf.fill(0.0)  # gap columns never receive a denominator
    m_tok_buf = take_buf("m_tok", (n_heads, total))
    ld_tok_buf = take_buf("ld_tok", (n_heads, total))
    ex = take_buf("ex", (n_heads, total))

    def _round_denominator(lb):
        """One round's per-segment log denominators, full-row fold.

        Every round re-reduces the whole (H, T) lower-bound row —
        decided tokens' frozen bounds included, since their exp terms
        shift as the running max rises — through the interleaved
        ``reduceat`` folds, matching the rectangular kernel's row folds
        bit for bit.  Returns ``(log_den_seg (H, n_live), log_den_tok
        (H, total))``; the latter is a scratch view valid until the next
        round.
        """
        np.maximum.reduceat(lb, reduce_idx, axis=1, out=m_cols_buf)
        m_seg = m_cols_buf[:, ::2]
        np.copyto(m_fix_buf, m_cols_buf)
        np.copyto(m_fix_buf, 0.0, where=~np.isfinite(m_cols_buf))
        np.take(m_fix_buf, col_of_tok, axis=1, out=m_tok_buf)
        np.subtract(lb, m_tok_buf, out=ex)
        np.clip(ex, -700.0, 0.0, out=ex)
        np.exp(ex, out=ex)
        np.add.reduceat(ex, reduce_idx, axis=1, out=den_cols_buf)
        seg_den = m_seg + np.log(den_cols_buf[:, ::2])
        ld_cols_buf[:, ::2] = seg_den
        np.take(ld_cols_buf, col_of_tok, axis=1, out=ld_tok_buf)
        return seg_den, ld_tok_buf

    # ---- breadth-round state.  One reduceat pass computes every
    # sequence's per-round denominator at once; a sequence whose tokens
    # are all decided simply stops changing (recomputing its denominator
    # from unchanged bounds reproduces the frozen value exactly).
    log_thr = config.log_threshold
    alive = take_buf("alive", (n_heads, total), bool)
    alive[:] = valid[None, :]
    chunks_fetched = take_buf("chunks", (n_heads, total), np.int64)
    chunks_fetched.fill(0)
    current_lb = take_buf("lb", (n_heads, total))
    current_lb.fill(-np.inf)
    log_den_seg = np.full((n_heads, n_live), -np.inf)
    round_alive = np.zeros(n_chunks + 1, dtype=np.int64)

    # ---- lazy alive-set score phase.  Round 1 (chunk 0) touches every
    # token once through one batched contraction; each later round
    # gathers only the surviving (head, token) pairs' next chunk digit
    # from the arena view and extends their partial scores, so per-round
    # score cost scales with the alive set (the keep fraction of T)
    # instead of T * C.  Reported ``scores`` of *pruned* tokens are the
    # certified upper bound at the round that pruned them (their
    # remaining chunks are never fetched — that is the point); kept
    # tokens' scores stay the exact full-depth values.
    backend = resolve_backend(config.score_backend)
    shifts = [
        1 << (quant.total_bits - (c + 1) * quant.chunk_bits)
        for c in range(n_chunks)
    ]
    planes4 = k_arena[base:span_end]  # (total, H, C, d) digit view
    int_mode = not exact_in_float
    if int_mode:
        # wide-format fallback: only the chunk-0 slice needs an int64
        # copy up front; later rounds cast just the gathered alive rows
        q_f = q_codes
        contrib0 = take_buf("lz_c0_i", (n_heads, total), np.int64)
        planes_c0 = take_buf("lz_p0_i", (total, n_heads, head_dim), np.int64)
        np.copyto(planes_c0, planes4[:, :, 0, :], casting="unsafe")
    elif k_arena.dtype == np.float32:
        q_f = q_codes.astype(np.float32)
        contrib0 = take_buf("lz_c0_f32", (n_heads, total), np.float32)
        planes_c0 = planes4[:, :, 0, :]
    else:
        q_f = q_codes.astype(np.float64)
        contrib0 = take_buf("lz_c0", (n_heads, total))
        planes_c0 = planes4[:, :, 0, :]
    q_seg = q_f[seg_ids]  # (n_live, H, d)
    ps_run = take_buf(
        "lz_ps_i" if int_mode else "lz_ps",
        (n_heads, total),
        np.int64 if int_mode else np.float64,
    )
    # pre-scaled margin tables (C, H, S): the rectangular kernel's
    # ``margin * scale`` products, gathered per round
    mlo_tbl = np.ascontiguousarray(
        (mins[:, :, 1:] * score_scale[:, :, None]).transpose(2, 1, 0)
    )
    mhi_tbl = np.ascontiguousarray(
        (maxs[:, :, 1:] * score_scale[:, :, None]).transpose(2, 1, 0)
    )
    s_min_row = take_buf("lz_smin", (n_heads, total))
    s_max_row = take_buf("lz_smax", (n_heads, total))
    m_row = take_buf("lz_mrow", (n_heads, total))
    exact_scores = take_buf("scores", (n_heads, total))
    exact_scores.fill(0.0)
    survivors = int(np.count_nonzero(alive))
    _sub("score_chunk0")  # setup (geometry, scale and margin tables)
    for b in range(n_chunks):
        if not survivors:
            break
        round_alive[b] = survivors
        # Strategy per round: a dense full-width chunk extension (one
        # batched per-segment contraction) beats compacted pair gathers
        # while the alive set is still a sizeable fraction of the arena
        # — the threshold-driven first refinement round typically
        # retains tens of percent of pairs, and only later rounds thin
        # to the ~0.4% keep fraction.  Both strategies run the identical
        # per-element value chain, so the switch is purely a performance
        # decision — every output is bit-identical either way.
        dense = b == 0 or (not int_mode and survivors * 8 >= alive.size)
        if dense:
            planes_cb = planes_c0 if b == 0 else planes4[:, :, b, :]
            backend.contract_chunk0(planes_cb, q_seg, st, en, contrib0)
            if b == 0:
                if not valid.all():  # scrub stale gap columns
                    contrib0[:, ~valid] = 0
                # promote the digit dot to the accumulator dtype first,
                # then scale by the chunk's power-of-two shift (exact
                # either way — a float32 contribution must NOT be
                # multiplied by the shift in float32, where the product
                # can exceed 2**24 and round)
                np.copyto(ps_run, contrib0)
                ps_run *= shifts[0]
            else:
                # dead and gap columns accumulate garbage here —
                # harmless: every consumer below is masked by ``alive``
                # and death scores were already recorded
                np.copyto(m_row, contrib0)
                m_row *= float(shifts[b])
                ps_run += m_row
            # full-width bounds — the rectangular kernel's elementwise
            # tree: (ps * scale + margin * scale) + bias (one base
            # product, copied: both bounds share it)
            np.multiply(ps_run, ss_ht, out=s_max_row)
            np.copyto(s_min_row, s_max_row)
            np.take(mlo_tbl[b], seq_clip, axis=1, out=m_row)
            s_min_row += m_row
            np.take(mhi_tbl[b], seq_clip, axis=1, out=m_row)
            s_max_row += m_row
            if bias_ht is not None:
                s_min_row += bias_ht
                s_max_row += bias_ht
            np.copyto(chunks_fetched, b + 1, where=alive)
            np.copyto(current_lb, s_min_row, where=alive)
            _sub("score_chunk0" if b == 0 else "score_refine")

            log_den_seg, log_den_tok = _round_denominator(current_lb)
            prune_now = (
                alive & ((s_max_row - log_den_tok) <= log_thr) & ~guard_row
            )
            # a pruned token's reported score is its certified upper
            # bound at the pruning decision (p'' >= p, Eq. 5)
            np.copyto(exact_scores, s_max_row, where=prune_now)
            alive &= ~prune_now
            survivors = int(np.count_nonzero(alive))
            _sub("prune")
        else:
            h_idx, t_idx = np.nonzero(alive)
            q_pair = q_f[seq_idx[t_idx], h_idx]  # (A, d)
            contrib_pair = np.empty(h_idx.size, dtype=contrib0.dtype)
            backend.contract_pairs(
                planes4, b, t_idx, h_idx, q_pair, contrib_pair
            )
            ps_pair = ps_run[h_idx, t_idx]
            if int_mode:
                ps_pair += contrib_pair * shifts[b]
            else:
                cp = (
                    contrib_pair
                    if contrib_pair.dtype == np.float64
                    else contrib_pair.astype(np.float64)
                )
                ps_pair += cp * float(shifts[b])
            ps_run[h_idx, t_idx] = ps_pair
            ss_pair = ss_ht[h_idx, t_idx]
            seqs_pair = seq_idx[t_idx]
            s_min_pair = ps_pair * ss_pair
            s_min_pair += mlo_tbl[b][h_idx, seqs_pair]
            s_max_pair = ps_pair * ss_pair
            s_max_pair += mhi_tbl[b][h_idx, seqs_pair]
            if bias_ht is not None:
                bias_pair = bias_ht[h_idx, t_idx]
                s_min_pair += bias_pair
                s_max_pair += bias_pair
            chunks_fetched[h_idx, t_idx] = b + 1
            current_lb[h_idx, t_idx] = s_min_pair
            _sub("score_refine")

            log_den_seg, log_den_tok = _round_denominator(current_lb)
            prune_pair = (
                (s_max_pair - log_den_tok[h_idx, t_idx]) <= log_thr
            ) & ~guard_t[t_idx]
            if prune_pair.any():
                dh = h_idx[prune_pair]
                dt = t_idx[prune_pair]
                exact_scores[dh, dt] = s_max_pair[prune_pair]
                alive[dh, dt] = False
                survivors -= int(dh.size)
            _sub("prune")
    round_alive[n_chunks] = survivors

    # kept tokens survived every round, so their running partial scores
    # are the exact full-depth values — finish their reported scores
    # with the rectangular kernel's elementwise ops
    kh, kt = np.nonzero(alive)
    if kh.size:
        kept_scores = ps_run[kh, kt] * ss_ht[kh, kt]
        if bias_ht is not None:
            kept_scores += bias_ht[kh, kt]
        exact_scores[kh, kt] = kept_scores
    _sub("score_refine")

    # ---- unpack: masked grouped softmax over the packed (H, T) score
    # matrix, one segment-reduced weighted-V pass, per-sequence slicing.
    probs_ht = take_buf("probs", (n_heads, total))
    probs_ht.fill(0.0)
    kept_counts = np.add.reduceat(
        alive.astype(np.int64), reduce_idx, axis=1
    )[:, ::2]  # (H, n_live) kept tokens per (head, segment)
    bounds = np.zeros(n_heads * n_live + 1, dtype=np.intp)
    np.cumsum(kept_counts.ravel(), out=bounds[1:])
    flat = exact_scores[alive]
    flat_probs = _grouped_softmax(flat, bounds)
    if flat.size:
        probs_ht[alive] = flat_probs

    outs = None
    if v_arena is not None:
        # gather only the *kept* tokens' V rows (keep fraction of the
        # cache) — the step-1 AV the hardware actually fetches
        v_flat = v_arena[base:span_end].transpose(1, 0, 2)[alive]
        outs = _grouped_weighted_v(
            flat_probs, v_flat, bounds, head_dim
        ).reshape(n_heads, n_live, head_dim)

    for i in range(n_live):
        s = int(seg_ids[i])
        lo, hi = int(st[i]), int(en[i])
        results[s] = BatchedPickerResult(
            kept=alive[:, lo:hi].copy(),
            chunks_fetched=chunks_fetched[:, lo:hi].copy(),
            scores=exact_scores[:, lo:hi].copy(),
            probs=probs_ht[:, lo:hi].copy(),
            outputs=outs[:, i].copy() if outs is not None else None,
            log_denominators=log_den_seg[:, i].copy(),
            quant=quant,
            head_dim=head_dim,
        )
    _sub("unpack")
    if timing:
        for key, seconds in sub_t.items():
            phase_times[key] = phase_times.get(key, 0.0) + seconds
        phase_times["score"] = phase_times.get("score", 0.0) + (
            sub_t["score_chunk0"] + sub_t["score_refine"]
        )

    return RaggedPickerResult(
        results=results, lengths=lengths, round_alive=round_alive
    )


def multi_head_token_picker(
    q: np.ndarray,
    keys: np.ndarray,
    values: Optional[np.ndarray],
    config: TokenPickerConfig,
) -> list:
    """Convenience: run the algorithm independently per head.

    ``q`` is ``(H, d)``, ``keys``/``values`` are ``(H, t, d)``.  Returns a
    list of :class:`TokenPickerResult`, one per head.  Scales are computed
    per head, matching the per-head calibration the models use.
    """
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if q.ndim != 2 or keys.ndim != 3 or q.shape[0] != keys.shape[0]:
        raise ValueError("q must be (H, d) and keys (H, t, d)")
    results = []
    for h in range(q.shape[0]):
        if values is None:
            results.append(token_picker_scores(q[h], keys[h], config))
        else:
            results.append(
                token_picker_attention(q[h], keys[h], values[h], config)
            )
    return results
