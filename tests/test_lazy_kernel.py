"""Lazy alive-set score kernel: bit-identity with the batched reference.

The fused arena kernel fetches chunk 0 for every token and later chunks
only for undecided (head, token) pairs, switching between dense
full-width rounds and compacted pair gathers as the alive set thins.
Its contract against independent per-sequence
``token_picker_attention_batched`` calls with the same scales (the
full-table rectangular reference):

* kept sets, chunks fetched, probabilities, outputs and log
  denominators are **bit-identical** (``array_equal``) — pruning
  decisions never move;
* kept tokens' reported scores are the exact full-depth values;
* a pruned token's reported score is its certified upper bound at the
  round that pruned it (``p'' >= p``, Eq. 5) — its remaining chunks
  were never fetched, which is the whole point;
* ``round_alive`` (pairs entering each round) is what the reference's
  fetch counts imply, and is monotone non-increasing.

Property-swept across arena dtypes (float32 / float64 / the int64
wide-format fallback), quant formats straddling the 52-bit float64
exactness limit, prompt-guard edges, biases and thresholds; plus
engine-level identity under preemption and tiered promotion re-runs.
"""

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
from repro.kvstore import TierConfig
from repro.serving import ServingEngine, synthetic_request
from test_kvstore import _assert_identical as _assert_drains_identical
from test_kvstore import _drain_collecting
from test_ragged_kernel import (
    _assert_matches_references,
    _build_arena,
    _make_batch,
    _references,
)
from test_ragged_kernel import _run_arena as _run_arena_with

#: (quant format, arena dtype) — float32 for the paper's 12-bit format,
#: float64 for formats exact under the 52-bit gate
#: (2*total_bits - 2 + bit_length(head_dim - 1) <= 52: 24-bit chunks at
#: head_dim 24 give 46 + 5 = 51), and the int64 fallback one format
#: beyond it (26-bit: 50 + 5 = 55), plus a single-chunk format whose
#: refinement loop is empty.
FORMATS = [
    (QuantConfig(12, 4), np.float32),
    (QuantConfig(12, 4), np.float64),
    (QuantConfig(24, 8), np.float64),
    (QuantConfig(26, 13), np.float64),
    (QuantConfig(8, 8), np.float64),
]
HEAD_DIM = 24


def _run_arena(config, qs, keys, values, scales, dtype, biases=None):
    return _run_arena_with(
        config, qs, keys, values, scales, dtype, biases,
        scratch=KernelScratch(),
    )


class TestLazyVsEagerSweep:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_seqs=st.integers(1, 5),
        n_heads=st.integers(1, 3),
        max_len=st.integers(1, 110),
        fmt=st.integers(0, len(FORMATS) - 1),
        with_bias=st.booleans(),
        guard=st.sampled_from([0, 1, 10_000]),
        thr=st.sampled_from([1e-4, 2e-3, 5e-2]),
    )
    def test_bit_identity(
        self, seed, n_seqs, n_heads, max_len, fmt, with_bias, guard, thr
    ):
        quant, dtype = FORMATS[fmt]
        rng = np.random.default_rng(seed)
        qs, keys, values, biases = _make_batch(
            rng, n_seqs, n_heads, HEAD_DIM, max_len, with_bias
        )
        scales = tuple(
            rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
            for _ in range(3)
        )
        config = TokenPickerConfig(
            threshold=thr, quant=quant, prompt_guard=guard
        )
        lazy = _run_arena(config, qs, keys, values, scales, dtype, biases)
        _assert_matches_references(
            lazy, _references(config, qs, keys, values, scales, biases)
        )


class TestLazyEdges:
    def _case(self, seed=0, n_seqs=4, n_heads=2, max_len=90):
        rng = np.random.default_rng(seed)
        qs, keys, values, _ = _make_batch(
            rng, n_seqs, n_heads, HEAD_DIM, max_len, with_bias=False
        )
        scales = tuple(
            rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
            for _ in range(3)
        )
        return qs, keys, values, scales

    def test_single_chunk_format_has_empty_refinement(self):
        """n_chunks=1: the whole decision happens in the chunk-0 round."""
        qs, keys, values, scales = self._case()
        config = TokenPickerConfig(
            threshold=2e-3, quant=QuantConfig(8, 8), score_backend="numpy"
        )
        lazy = _run_arena(config, qs, keys, values, scales, np.float64)
        _assert_matches_references(
            lazy, _references(config, qs, keys, values, scales)
        )
        assert lazy.round_alive.shape == (2,)
        for r in lazy.results:
            assert np.all(r.chunks_fetched == 1)

    def test_guard_covering_everything_keeps_scores_exact(self):
        """With every token guarded nothing is ever pruned, so the lazy
        path runs every refinement round to full depth and its *entire*
        score matrix — not just kept entries — is the reference's."""
        qs, keys, values, scales = self._case(seed=3)
        config = TokenPickerConfig(threshold=2e-3, prompt_guard=10_000)
        lazy = _run_arena(config, qs, keys, values, scales, np.float32)
        references = _references(config, qs, keys, values, scales)
        _assert_matches_references(lazy, references)
        for lz, ref in zip(lazy.results, references):
            assert np.array_equal(lz.scores, ref.scores)
            assert lz.kept.all()

    def test_depth_schedule_rejected_on_every_backend(self):
        n_chunks = TokenPickerConfig().quant.n_chunks
        for backend in ("numpy", "numba"):
            config = TokenPickerConfig(
                schedule="depth", score_backend=backend
            )
            with pytest.raises(ValueError, match="breadth"):
                token_picker_attention_ragged(
                    np.zeros((1, 2, 8)), config,
                    k_plane_arena=np.zeros((3, 2 * n_chunks, 8)),
                    segments=np.array([[0, 3]]),
                    q_scales=np.ones((1, 2)), k_scales=np.ones((1, 2)),
                )

    def test_lazy_matches_independent_batched_calls(self):
        """Field-by-field check straight against the serving contract's
        ground truth (independent batched calls) on a float32 arena."""
        qs, keys, values, scales = self._case(seed=11)
        q_sc, k_sc, v_sc = scales
        config = TokenPickerConfig(threshold=2e-3, score_backend="numpy")
        lazy = _run_arena(config, qs, keys, values, scales, np.float32)
        for s in range(len(keys)):
            independent = token_picker_attention_batched(
                qs[s], keys[s], values[s], config,
                q_scales=q_sc[s], k_scales=k_sc[s], v_scales=v_sc[s],
            )
            r = lazy.results[s]
            assert np.array_equal(r.kept, independent.kept)
            assert np.array_equal(
                r.chunks_fetched, independent.chunks_fetched
            )
            assert np.array_equal(r.probs, independent.probs)
            assert np.array_equal(r.outputs, independent.outputs)
            assert np.array_equal(
                r.log_denominators, independent.log_denominators
            )


class TestScratchReuse:
    def test_round_buffers_stable_across_steps(self):
        """The lazy round loop's scratch views (partial scores, bounds,
        denominator work arrays, the hoisted ``ld_cols``/``m_tok``/exp
        buffers) must come from the same backing allocations on every
        same-shaped call — the allocator traffic the tentpole removed
        must not creep back."""
        rng = np.random.default_rng(5)
        n_seqs, n_heads = 4, 2
        qs, keys, values, _ = _make_batch(
            rng, n_seqs, n_heads, HEAD_DIM, 80, with_bias=False
        )
        scales = tuple(
            rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
            for _ in range(3)
        )
        q_sc, k_sc, v_sc = scales
        config = TokenPickerConfig(threshold=2e-3, score_backend="numpy")
        k_arena, v_arena, segments = _build_arena(
            keys, values, k_sc, v_sc, config.quant, np.float32
        )
        scratch = KernelScratch()

        def call():
            return token_picker_attention_ragged(
                qs, config,
                k_plane_arena=k_arena, segments=segments,
                q_scales=q_sc, k_scales=k_sc, v_arena=v_arena,
                scratch=scratch,
            )

        first = call()
        buffers_after_first = dict(scratch._buffers)
        for name in (
            "ld_cols", "m_tok", "ex", "m_cols", "m_fix", "den_cols",
            "lz_ps", "lz_smin", "lz_smax", "lz_mrow", "scores",
        ):
            assert any(k[0] == name for k in buffers_after_first), name
        second = call()
        assert set(scratch._buffers) == set(buffers_after_first)
        for key, buf in scratch._buffers.items():
            assert buf is buffers_after_first[key], key
        # identical inputs -> identical outputs through reused scratch
        assert np.array_equal(second.round_alive, first.round_alive)
        for a, b in zip(second.results, first.results):
            for field in (
                "kept", "chunks_fetched", "scores", "probs", "outputs",
                "log_denominators",
            ):
                assert np.array_equal(getattr(a, field), getattr(b, field))


CFG_KW = dict(threshold=2e-3)
N_HEADS = 4


def _requests(n, prompt=96, new=12, seed=0, head_dim=32):
    rng = np.random.default_rng(seed)
    return [
        synthetic_request(rng, N_HEADS, prompt, head_dim, new)
        for _ in range(n)
    ]


class TestEngineBackendIdentity:
    def _engine(
        self, backend="numpy", tier=None, batch=4, capacity=None,
        preemptible=False,
    ):
        kwargs = {}
        if preemptible:
            from repro.cluster.memory import make_memory_manager

            kwargs = dict(
                block_size=8,
                memory_manager=make_memory_manager(
                    "optimistic", block_size=8
                ),
            )
        return ServingEngine(
            TokenPickerConfig(score_backend=backend, **CFG_KW),
            max_batch_size=batch,
            capacity_tokens=capacity or batch * 140,
            seed=0,
            kv_tiering=tier,
            **kwargs,
        )

    def test_backends_identical_under_preemption(self):
        """An overcommitted engine that preempts (swap-out/swap-in)
        against an untiered engine with room for everything and no
        preemption: identical per-request outputs step for step."""
        preempting = self._engine(
            batch=4, capacity=4 * 72, preemptible=True
        )
        roomy = self._engine(batch=4, capacity=8 * 72)
        lazy = _drain_collecting(
            preempting, _requests(8, prompt=48, new=24, seed=5)
        )
        baseline = _drain_collecting(
            roomy, _requests(8, prompt=48, new=24, seed=5)
        )
        assert preempting.preemptions_total > 0
        assert roomy.preemptions_total == 0
        _assert_drains_identical(lazy, baseline)

    def test_tiered_lazy_matches_untiered_eager(self):
        """The strongest composition: the lazy kernel under tiered KV
        demotion (including promotion-triggered kernel re-runs) against
        an untiered run without preemption — still bit-identical."""
        tier = TierConfig(
            policy="recency", recency_window=4, hot_tail=4,
            survive_idle_steps=1,
        )
        baseline = _drain_collecting(self._engine(), _requests(4))
        tiered_engine = self._engine(tier=tier)
        tiered = _drain_collecting(tiered_engine, _requests(4))
        _assert_drains_identical(baseline, tiered)
        assert tiered_engine.tiers.promotions_total > 0
        assert tiered_engine.tiers.rerun_steps_total > 0

    def test_engine_accumulates_round_alive(self):
        engine = self._engine()
        for request in _requests(4):
            engine.submit(request)
        reports = engine.run_until_drained()
        busy = [r for r in reports if r.batch_size]
        assert all(r.round_alive is not None for r in busy)
        totals = engine.round_alive_totals
        assert totals.shape == (
            engine.config.quant.n_chunks + 1,
        )
        assert totals[0] == sum(int(r.round_alive[0]) for r in busy)
        assert np.all(np.diff(totals) <= 0)
        assert totals[0] > 0
