"""Ragged-batch kernel equivalence: fused arena call == N batched calls.

The serving engine's correctness rests on one property: running N
sequences with mixed context lengths through one fused kernel call on
the packed KV arena changes *nothing* that decides or prices attention
— every pruning decision, fetched-chunk count, probability, output, log
denominator and traffic statistic is bit-identical to calling
``token_picker_attention_batched`` on each sequence alone with the same
scales.  Only a pruned token's reported score differs: the fused kernel
reports its certified upper bound (the bound-score contract).  These
tests assert exact (``array_equal``, not ``allclose``) equality,
property-based over mixed lengths, head counts, thresholds, chunk
formats, arena dtypes, biases and frozen-vs-data-derived scales.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    QuantConfig,
    TokenPickerConfig,
    token_picker_attention_batched,
    token_picker_attention_ragged,
)
from repro.core.pruning import KernelScratch
from repro.core.quantization import split_chunks
from repro.serving.kv_pool import encode_kv_rows


def _make_batch(rng, n_seqs, n_heads, head_dim, max_len, with_bias):
    lengths = rng.integers(1, max_len + 1, size=n_seqs)
    qs, keys, values, biases = [], [], [], []
    for t in lengths:
        k = rng.normal(size=(n_heads, int(t), head_dim))
        v = rng.normal(size=(n_heads, int(t), head_dim))
        q = k[:, -1] * 2 + 0.3 * rng.normal(size=(n_heads, head_dim))
        qs.append(q)
        keys.append(k)
        values.append(v)
        biases.append(0.1 * rng.normal(size=(n_heads, int(t))) if with_bias else None)
    return np.stack(qs), keys, values, (biases if with_bias else None)


def _build_arena(keys, values, k_sc, v_sc, quant, dtype, gap=5):
    """Token-major packed arena (unshifted chunk digits + deq V) with dead
    inter-segment gaps, as the serving pool lays sequences out."""
    n_seqs = len(keys)
    n_heads, _, head_dim = keys[0].shape
    cap = sum(int(k.shape[1]) for k in keys) + gap * (n_seqs + 1)
    k_arena = np.zeros((cap, n_heads * quant.n_chunks, head_dim), dtype=dtype)
    v_arena = np.zeros((cap, n_heads, head_dim))
    segments = np.zeros((n_seqs, 2), dtype=np.int64)
    offset = gap
    for s in range(n_seqs):
        t = int(keys[s].shape[1])
        codes = np.clip(
            np.rint(keys[s] / k_sc[s][:, None, None]), quant.qmin, quant.qmax
        ).astype(np.int64)
        digits = split_chunks(codes, quant)  # (H, t, d, C) unsigned
        sign_threshold = 1 << (quant.chunk_bits - 1)
        wrap = 1 << quant.chunk_bits
        first = digits[..., 0]
        digits[..., 0] = np.where(
            first >= sign_threshold, first - wrap, first
        )
        k_arena[offset:offset + t] = digits.transpose(1, 0, 3, 2).reshape(
            t, n_heads * quant.n_chunks, head_dim
        )
        vsc = v_sc[s][:, None, None]
        v_arena[offset:offset + t] = (
            np.clip(np.rint(values[s] / vsc), quant.qmin, quant.qmax) * vsc
        ).transpose(1, 0, 2)
        segments[s] = (offset, t)
        offset += t + gap
    return k_arena, v_arena, segments


def _data_scales(qs, keys, values, quant):
    """(S, H) per-head scales derived from the data — the batched
    kernel's default calibration (1.0 where a tensor is empty or zero)."""

    def of(x, axes):
        if x.size == 0:
            return np.ones(x.shape[0])
        max_abs = np.abs(x).max(axis=axes)
        return np.where(max_abs > 0, max_abs / quant.qmax, 1.0)

    return (
        np.stack([of(q, 1) for q in qs]),
        np.stack([of(k, (1, 2)) for k in keys]),
        np.stack([of(v, (1, 2)) for v in values]),
    )


def _run_arena(
    config, qs, keys, values, scales, dtype=np.float32, biases=None,
    scratch=None,
):
    """Build the packed arena from float K/V under ``scales`` (q, k, v)
    and make one fused kernel call; ``values=None`` runs scores only."""
    q_sc, k_sc, v_sc = scales
    k_arena, v_arena, segments = _build_arena(
        keys,
        values if values is not None else [np.zeros_like(k) for k in keys],
        k_sc, v_sc, config.quant, dtype,
    )
    return token_picker_attention_ragged(
        qs, config,
        k_plane_arena=k_arena, segments=segments,
        q_scales=q_sc, k_scales=k_sc,
        v_arena=v_arena if values is not None else None,
        score_bias=biases, scratch=scratch,
    )


def _references(config, qs, keys, values, scales, biases=None):
    """Independent rectangular calls, one per sequence, same scales."""
    q_sc, k_sc, v_sc = scales
    return [
        token_picker_attention_batched(
            qs[s], keys[s], None if values is None else values[s], config,
            score_bias=None if biases is None else biases[s],
            q_scales=q_sc[s], k_scales=k_sc[s], v_scales=v_sc[s],
        )
        for s in range(len(keys))
    ]


def _assert_identical(ragged_result, independent, scores="bound"):
    """Bit-identity of every decision-bearing field.

    ``scores="bound"`` is the fused kernel's contract: kept tokens'
    scores are the exact full-depth values, while a pruned token's
    reported score is its certified upper bound at the round that
    pruned it (``p'' >= p``, so the reported score dominates the exact
    one; its remaining chunks are never fetched).  ``scores="exact"``
    additionally requires the full score matrix to match (nothing was
    pruned, or both sides are fused results).
    """
    assert np.array_equal(ragged_result.kept, independent.kept)
    assert np.array_equal(ragged_result.chunks_fetched, independent.chunks_fetched)
    if scores == "exact":
        assert np.array_equal(ragged_result.scores, independent.scores)
    else:
        kept = independent.kept
        assert np.array_equal(ragged_result.scores[kept], independent.scores[kept])
        pruned_lazy = ragged_result.scores[~kept]
        pruned_exact = independent.scores[~kept]
        assert np.all(
            pruned_lazy >= pruned_exact - (1e-9 + 1e-9 * np.abs(pruned_exact))
        )
    assert np.array_equal(ragged_result.probs, independent.probs)
    assert np.array_equal(
        ragged_result.log_denominators, independent.log_denominators
    )
    if independent.outputs is None:
        assert ragged_result.outputs is None
    else:
        assert np.array_equal(ragged_result.outputs, independent.outputs)
    assert ragged_result.stats() == independent.stats()


def _assert_matches_references(ragged, references):
    """Every sequence follows the bound-score contract, and
    ``round_alive`` is what the references' fetch counts imply: pairs
    entering round ``b`` fetched at least ``b + 1`` chunks, and the last
    slot is the kept count."""
    assert ragged.n_sequences == len(references)
    for result, independent in zip(ragged.results, references):
        _assert_identical(result, independent)
    n_chunks = references[0].quant.n_chunks
    expected = np.array(
        [
            sum(int((r.chunks_fetched >= b + 1).sum()) for r in references)
            for b in range(n_chunks)
        ]
        + [sum(int(r.kept.sum()) for r in references)]
    )
    if expected.any():
        assert np.array_equal(ragged.round_alive, expected)
        assert np.all(np.diff(ragged.round_alive) <= 0)


class TestBitIdenticalEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_seqs=st.integers(1, 6),
        n_heads=st.integers(1, 3),
        max_len=st.integers(1, 160),
        threshold=st.sampled_from([1e-2, 2e-3, 1e-4]),
        with_bias=st.booleans(),
        frozen_scales=st.booleans(),
    )
    def test_property_mixed_lengths(
        self, seed, n_seqs, n_heads, max_len, threshold, with_bias, frozen_scales
    ):
        rng = np.random.default_rng(seed)
        head_dim = int(rng.integers(4, 33))
        config = TokenPickerConfig(threshold=threshold)
        qs, keys, values, biases = _make_batch(
            rng, n_seqs, n_heads, head_dim, max_len, with_bias
        )
        if frozen_scales:
            scales = tuple(
                rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
                for _ in range(3)
            )
        else:
            scales = _data_scales(qs, keys, values, config.quant)
        ragged = _run_arena(config, qs, keys, values, scales, biases=biases)
        _assert_matches_references(
            ragged, _references(config, qs, keys, values, scales, biases)
        )

    def test_long_contexts_past_pairwise_summation_blocks(self):
        """Lengths above numpy's 128-element pairwise-sum block still match."""
        rng = np.random.default_rng(7)
        config = TokenPickerConfig(threshold=2e-3)
        qs, keys, values, _ = _make_batch(rng, 4, 2, 48, 700, with_bias=False)
        scales = _data_scales(qs, keys, values, config.quant)
        ragged = _run_arena(config, qs, keys, values, scales)
        _assert_matches_references(
            ragged, _references(config, qs, keys, values, scales)
        )

    def test_scores_only_mode(self):
        rng = np.random.default_rng(3)
        config = TokenPickerConfig(threshold=2e-3)
        qs, keys, values, _ = _make_batch(rng, 3, 2, 16, 60, with_bias=False)
        scales = _data_scales(qs, keys, values, config.quant)
        ragged = _run_arena(config, qs, keys, None, scales)
        _assert_matches_references(
            ragged, _references(config, qs, keys, None, scales)
        )

    def test_wide_chunk_format(self):
        quant = QuantConfig(total_bits=8, chunk_bits=2)
        config = TokenPickerConfig(threshold=2e-3, quant=quant)
        rng = np.random.default_rng(11)
        qs, keys, values, _ = _make_batch(rng, 3, 2, 8, 70, with_bias=False)
        scales = _data_scales(qs, keys, values, quant)
        ragged = _run_arena(config, qs, keys, values, scales)
        _assert_matches_references(
            ragged, _references(config, qs, keys, values, scales)
        )

    @staticmethod
    def _pool_encoded_arena(keys, values, k_sc, v_sc, quant, dtype):
        """Arena written by the serving pool's encoder, gap-free."""
        n_heads, _, head_dim = keys[0].shape
        total = sum(k.shape[1] for k in keys)
        k_arena = np.zeros((total, n_heads * quant.n_chunks, head_dim), dtype)
        v_arena = np.zeros((total, n_heads, head_dim))
        segments = np.zeros((len(keys), 2), dtype=np.int64)
        offset = 0
        for s, (k, v) in enumerate(zip(keys, values)):
            t = k.shape[1]
            encode_kv_rows(
                k.transpose(1, 0, 2), v.transpose(1, 0, 2),
                k_sc[s][None], v_sc[s][None], quant,
                k_arena[offset:offset + t], v_arena[offset:offset + t],
            )
            segments[s] = (offset, t)
            offset += t
        return k_arena, v_arena, segments

    def test_pre_encoded_planes_and_values_match_float_path(self):
        """The serving pool's encode-once representation (chunk digits +
        quantize-dequantized V under frozen scales, written by
        ``encode_kv_rows``) must reproduce the float reference bit for
        bit."""
        rng = np.random.default_rng(13)
        config = TokenPickerConfig(threshold=2e-3)
        quant = config.quant
        n_seqs, n_heads, head_dim = 4, 2, 24
        qs, keys, values, _ = _make_batch(
            rng, n_seqs, n_heads, head_dim, 120, with_bias=False
        )
        scales = tuple(
            rng.uniform(0.005, 0.05, size=(n_seqs, n_heads)) for _ in range(3)
        )
        q_sc, k_sc, v_sc = scales
        k_arena, v_arena, segments = self._pool_encoded_arena(
            keys, values, k_sc, v_sc, quant, np.float32
        )
        encoded = token_picker_attention_ragged(
            qs, config,
            k_plane_arena=k_arena, segments=segments,
            q_scales=q_sc, k_scales=k_sc, v_arena=v_arena,
        )
        _assert_matches_references(
            encoded, _references(config, qs, keys, values, scales)
        )

    def test_pre_encoded_planes_wide_format_integer_fallback(self):
        """Formats too wide for exact float64 dot products must take the
        integer fallback and still match the float reference bit for
        bit."""
        quant = QuantConfig(total_bits=28, chunk_bits=4)
        config = TokenPickerConfig(threshold=2e-3, quant=quant)
        rng = np.random.default_rng(17)
        n_seqs, n_heads, head_dim = 2, 2, 64
        qs, keys, values, _ = _make_batch(
            rng, n_seqs, n_heads, head_dim, 40, with_bias=False
        )
        k_sc = rng.uniform(1e-8, 2e-8, size=(n_seqs, n_heads))
        q_sc = rng.uniform(1e-8, 2e-8, size=(n_seqs, n_heads))
        v_sc = np.ones((n_seqs, n_heads))
        k_arena, _, segments = self._pool_encoded_arena(
            keys, values, k_sc, v_sc, quant, np.float64
        )
        encoded = token_picker_attention_ragged(
            qs, config,
            k_plane_arena=k_arena, segments=segments,
            q_scales=q_sc, k_scales=k_sc,
        )
        _assert_matches_references(
            encoded,
            _references(config, qs, keys, None, (q_sc, k_sc, v_sc)),
        )

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_arena_path_matches_batched(self, backend):
        """The zero-copy packed-arena path (token-major digit planes +
        segment table, dead gaps between slabs) must follow the
        bound-score contract against independent batched calls — the
        serving engine's contract — under either contraction backend
        (``numba`` falls back to NumPy when it is not installed)."""
        for dtype, seed in ((np.float32, 0), (np.float64, 1)):
            rng = np.random.default_rng(seed)
            config = TokenPickerConfig(threshold=2e-3, score_backend=backend)
            n_seqs, n_heads, head_dim = 4, 2, 24
            qs, keys, values, _ = _make_batch(
                rng, n_seqs, n_heads, head_dim, 120, with_bias=False
            )
            scales = tuple(
                rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
                for _ in range(3)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                arena = _run_arena(
                    config, qs, keys, values, scales, dtype,
                    scratch=KernelScratch(),
                )
            _assert_matches_references(
                arena, _references(config, qs, keys, values, scales)
            )

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_arena_scratch_reuse_across_growing_steps(self, backend):
        """Reusing one scratch across calls with growing shapes (the
        engine's decode loop) must not change any result."""
        rng = np.random.default_rng(7)
        config = TokenPickerConfig(threshold=2e-3, score_backend=backend)
        n_seqs, n_heads, head_dim = 3, 2, 16
        scratch = KernelScratch()
        for step, max_len in enumerate((40, 70, 110)):
            qs, keys, values, _ = _make_batch(
                rng, n_seqs, n_heads, head_dim, max_len, with_bias=False
            )
            scales = tuple(
                rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
                for _ in range(3)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                arena = _run_arena(
                    config, qs, keys, values, scales, scratch=scratch
                )
            _assert_matches_references(
                arena, _references(config, qs, keys, values, scales)
            )

    def test_arena_validation(self):
        rng = np.random.default_rng(0)
        config = TokenPickerConfig()
        quant = config.quant
        qs = rng.normal(size=(1, 2, 8))
        arena = np.zeros((32, 2 * quant.n_chunks, 8))
        segs = np.array([[0, 8]], dtype=np.int64)
        ones = np.ones((1, 2))
        with pytest.raises(ValueError, match="k_scales"):
            token_picker_attention_ragged(
                qs, config, k_plane_arena=arena, segments=segs,
                q_scales=ones, k_scales=np.zeros((1, 2)),
            )
        with pytest.raises(ValueError, match="segments"):
            token_picker_attention_ragged(
                qs, config, k_plane_arena=arena,
                segments=np.zeros((2, 2), dtype=np.int64),
                q_scales=ones, k_scales=ones,
            )
        with pytest.raises(ValueError, match="within the arena"):
            token_picker_attention_ragged(
                qs, config, k_plane_arena=arena,
                segments=np.array([[30, 8]], dtype=np.int64),
                q_scales=ones, k_scales=ones,
            )
        with pytest.raises(ValueError, match="float32"):
            wide = QuantConfig(total_bits=28, chunk_bits=4)
            cfg_wide = TokenPickerConfig(quant=wide)
            token_picker_attention_ragged(
                rng.normal(size=(1, 2, 64)), cfg_wide,
                k_plane_arena=np.zeros(
                    (16, 2 * wide.n_chunks, 64), dtype=np.float32
                ),
                segments=np.array([[0, 8]], dtype=np.int64),
                q_scales=np.full((1, 2), 1e-8),
                k_scales=np.full((1, 2), 1e-8),
            )

    def test_empty_context_sequences_mix(self):
        rng = np.random.default_rng(5)
        config = TokenPickerConfig(threshold=2e-3)
        h, d = 2, 8
        keys = [
            np.zeros((h, 0, d)),
            rng.normal(size=(h, 20, d)),
            np.zeros((h, 0, d)),
        ]
        values = [np.zeros((h, 0, d)), rng.normal(size=(h, 20, d)), np.zeros((h, 0, d))]
        qs = rng.normal(size=(3, h, d))
        scales = _data_scales(qs, keys, values, config.quant)
        ragged = _run_arena(config, qs, keys, values, scales)
        _assert_matches_references(
            ragged, _references(config, qs, keys, values, scales)
        )
        assert ragged.stats().n_tokens == 2 * 20


class TestExactInFloatBoundary:
    """The arena score path picks float64 or int64 accumulation by the
    52-bit mantissa gate; formats straddling the limit must agree
    bit-for-bit with the always-exact integer rectangular reference."""

    FORMATS = [  # (total_bits, chunk_bits, head_dim): gate = 2N-2+bl(d-1)
        (26, 13, 4),    # 52 -> float64 plane path
        (26, 13, 8),    # 53 -> int64 fallback
        (25, 5, 16),    # 52 -> float64 plane path
        (25, 5, 32),    # 53 -> int64 fallback
        (24, 8, 64),    # 52 -> float64 plane path
        (24, 12, 128),  # 53 -> int64 fallback
    ]

    @settings(
        max_examples=24,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        fmt=st.sampled_from(range(len(FORMATS))),
    )
    def test_plane_paths_straddle_52_bit_limit(self, seed, fmt):
        total_bits, chunk_bits, head_dim = self.FORMATS[fmt]
        quant = QuantConfig(total_bits=total_bits, chunk_bits=chunk_bits)
        config = TokenPickerConfig(threshold=2e-3, quant=quant)
        rng = np.random.default_rng(seed)
        n_seqs, n_heads = 2, 2
        qs, keys, _, _ = _make_batch(rng, n_seqs, n_heads, head_dim, 24, False)
        # oracle (saturating) scales stress the most-significant chunks
        q_sc, k_sc, _ = _data_scales(qs, keys, keys, quant)
        scales = (q_sc, k_sc, np.ones_like(k_sc))
        via_arena = _run_arena(config, qs, keys, None, scales, np.float64)
        _assert_matches_references(
            via_arena, _references(config, qs, keys, None, scales)
        )


class TestAggregates:
    def test_merged_stats_and_lengths(self):
        rng = np.random.default_rng(0)
        config = TokenPickerConfig(threshold=2e-3)
        qs, keys, values, _ = _make_batch(rng, 5, 2, 16, 90, with_bias=False)
        scales = _data_scales(qs, keys, values, config.quant)
        ragged = _run_arena(config, qs, keys, values, scales)
        assert ragged.n_sequences == 5
        assert np.array_equal(
            ragged.lengths, np.array([k.shape[1] for k in keys])
        )
        merged = ragged.stats()
        assert merged.n_tokens == sum(2 * k.shape[1] for k in keys)
        assert merged.k_chunks_fetched == sum(
            r.stats().k_chunks_fetched for r in ragged.results
        )


class TestValidation:
    @staticmethod
    def _arena_case(rng, n_seqs=2, n_heads=2, t=5, d=8):
        config = TokenPickerConfig()
        qs = rng.normal(size=(n_seqs, n_heads, d))
        keys = [rng.normal(size=(n_heads, t, d))] * n_seqs
        scales = _data_scales(qs, keys, keys, config.quant)
        k_arena, v_arena, segments = _build_arena(
            keys, keys, scales[1], scales[2], config.quant, np.float32
        )
        kwargs = dict(
            k_plane_arena=k_arena, segments=segments,
            q_scales=scales[0], k_scales=scales[1], v_arena=v_arena,
        )
        return qs, keys, kwargs

    def test_both_schedules(self):
        """The fused kernels realise the hardware's breadth order only;
        the depth reference stays a per-sequence schedule."""
        rng = np.random.default_rng(0)
        qs, keys, kwargs = self._arena_case(rng)
        depth = TokenPickerConfig(schedule="depth")
        with pytest.raises(ValueError, match="breadth"):
            token_picker_attention_ragged(qs, depth, **kwargs)
        with pytest.raises(ValueError, match="breadth"):
            token_picker_attention_batched(qs[0], keys[0], None, depth)
        breadth = TokenPickerConfig(schedule="breadth")
        assert token_picker_attention_ragged(qs, breadth, **kwargs).n_sequences == 2

    def test_shape_errors(self):
        rng = np.random.default_rng(0)
        config = TokenPickerConfig()
        qs, _, kwargs = self._arena_case(rng)
        bad_cases = [
            (qs[0], {}),  # qs must be (S, H, d)
            (qs, {"segments": kwargs["segments"][:1]}),
            (qs, {"k_plane_arena": kwargs["k_plane_arena"][:, :3]}),
            (qs, {"v_arena": kwargs["v_arena"][:, :1]}),
            (qs, {"score_bias": [np.zeros((2, 4))] * 2}),
            (qs, {"score_bias": [None]}),
            (qs, {"q_scales": np.zeros((2, 2))}),
            (qs, {"k_scales": np.ones((2, 3))}),
        ]
        for bad_qs, override in bad_cases:
            with pytest.raises(ValueError):
                token_picker_attention_ragged(
                    bad_qs, config, **{**kwargs, **override}
                )
