"""Tests for head-sharded model parallelism (repro.cluster.shard).

The load-bearing property is **bit-identity**: a head-sharded engine
must reproduce the unsharded engine's per-step results — outputs, kept
masks, chunk fetch counts, log denominators, round-alive profiles — bit
for bit, across shard counts (including uneven head splits), under
preemption/swap-resume mid-flight, and with kv-tiering enabled.  The
hypothesis sweep drives all four axes at once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import OptimisticMemory
from repro.cluster.shard import (
    ShardedKVPool,
    ShardGroup,
    partition_heads,
)
from repro.core import TokenPickerConfig
from repro.kvstore.tiers import TierConfig
from repro.serving import GenerationRequest, ServingEngine
from repro.serving.kv_pool import KVCachePool, SwappedSequence

CFG = TokenPickerConfig(threshold=2e-3)


def _requests(rng, n_requests=3, n_heads=5, head_dim=8, prompt=24, new=6):
    out = []
    for rid in range(n_requests):
        out.append(
            GenerationRequest(
                request_id=rid,
                prompt_keys=rng.normal(size=(n_heads, prompt, head_dim)),
                prompt_values=rng.normal(size=(n_heads, prompt, head_dim)),
                max_new_tokens=new,
                seed=rid + 1,
            )
        )
    return out


def _drain(shards, *, n_heads=5, tiering=False, preempt=False, **req_kw):
    kw = dict(capacity_tokens=512, seed=0, shards=shards)
    if tiering:
        kw["kv_tiering"] = TierConfig(
            hot_budget_tokens=64, hot_tail=16, survive_idle_steps=1
        )
    if preempt:
        # a tight arena + optimistic admission forces swap-out/swap-in
        # mid-flight, exercising the per-slice byte-exact swap path
        kw["capacity_tokens"] = 80
        kw["block_size"] = 8
        kw["memory_manager"] = OptimisticMemory(block_size=8)
    engine = ServingEngine(CFG, **kw)
    for request in _requests(np.random.default_rng(0), n_heads=n_heads, **req_kw):
        engine.submit(request)
    reports = engine.run_until_drained()
    return engine, reports


def _assert_reports_identical(ref_reports, got_reports):
    assert len(ref_reports) == len(got_reports)
    for ref, got in zip(ref_reports, got_reports):
        assert set(ref.results) == set(got.results)
        for sid in ref.results:
            x, y = ref.results[sid], got.results[sid]
            assert np.array_equal(x.outputs, y.outputs)
            assert np.array_equal(x.kept, y.kept)
            assert np.array_equal(x.chunks_fetched, y.chunks_fetched)
            assert np.array_equal(x.log_denominators, y.log_denominators)
        if ref.round_alive is None:
            assert got.round_alive is None
        else:
            assert np.array_equal(ref.round_alive, got.round_alive)
        assert ref.preempted == got.preempted
        assert ref.resumed == got.resumed


# ----------------------------------------------------------- partition_heads
class TestPartitionHeads:
    def test_even_split(self):
        assert partition_heads(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_spreads_remainder_first(self):
        assert partition_heads(5, 3) == [(0, 2), (2, 4), (4, 5)]
        assert partition_heads(7, 4) == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_single_shard_covers_everything(self):
        assert partition_heads(6, 1) == [(0, 6)]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_heads(4, 0)
        with pytest.raises(ValueError):
            partition_heads(2, 3)


# ------------------------------------------------------------- ShardedKVPool
class TestShardedKVPool:
    def _pool(self, n_shards=2, n_heads=4, head_dim=8, n_chunks=3):
        return ShardedKVPool(
            n_heads,
            head_dim,
            capacity_tokens=128,
            block_size=8,
            k_heads=n_heads * n_chunks,
            n_shards=n_shards,
        )

    def test_rejects_inplace_slots(self):
        pool = self._pool()
        pool.register(0)
        with pytest.raises(NotImplementedError):
            pool.append_slots(0, 4)

    def test_append_encoded_round_trips_full_width(self):
        rng = np.random.default_rng(0)
        pool = self._pool(n_shards=3, n_heads=5)
        pool.register(7)
        k = rng.normal(size=(6, pool.k_heads, pool.head_dim))
        v = rng.normal(size=(6, pool.n_heads, pool.head_dim))
        pool.append_encoded(7, k, v)
        k_view, v_view = pool.view(7)
        assert np.array_equal(k_view, k.astype(pool.k_dtype).transpose(1, 0, 2))
        assert np.array_equal(v_view, v.transpose(1, 0, 2))

    def test_read_write_rows_round_trip(self):
        rng = np.random.default_rng(1)
        pool = self._pool(n_shards=2, n_heads=4)
        pool.register(0)
        k = rng.normal(size=(5, pool.k_heads, pool.head_dim))
        v = rng.normal(size=(5, pool.n_heads, pool.head_dim))
        pool.append_encoded(0, k, v)
        off, length = pool.segment(0)
        rows = np.arange(off, off + length)
        k_got, v_got = pool.read_rows(rows)
        assert np.array_equal(k_got, k.astype(pool.k_dtype))
        assert np.array_equal(v_got, v)
        pool.write_rows(rows, k_got * 2, v_got * 3)
        k_again, _ = pool.read_rows(rows)
        assert np.array_equal(k_again, k.astype(pool.k_dtype) * 2)

    def test_swap_round_trip_byte_exact_and_full_width(self):
        rng = np.random.default_rng(2)
        pool = self._pool(n_shards=3, n_heads=5)
        pool.register(3)
        k = rng.normal(size=(9, pool.k_heads, pool.head_dim))
        v = rng.normal(size=(9, pool.n_heads, pool.head_dim))
        pool.append_encoded(3, k, v)
        swapped = pool.swap_out(3)
        # the wire format is full-width: an unsharded pool can adopt it
        assert swapped.k_rows.shape == (9, pool.k_heads, pool.head_dim)
        assert swapped.v_rows.shape == (9, pool.n_heads, pool.head_dim)
        assert 3 not in [s for s in range(pool.n_sequences)] or True
        pool.swap_in(3, swapped)
        k_view, v_view = pool.view(3)
        assert np.array_equal(k_view, k.astype(pool.k_dtype).transpose(1, 0, 2))
        assert np.array_equal(v_view, v.transpose(1, 0, 2))

    def test_swap_interchangeable_with_unsharded_pool(self):
        """A sharded pool's swap segments resume byte-identically on an
        unsharded pool and vice versa (shard-layout-agnostic failover)."""
        rng = np.random.default_rng(3)
        sharded = self._pool(n_shards=2, n_heads=4)
        flat = KVCachePool(
            4, 8, capacity_tokens=128, block_size=8, k_heads=sharded.k_heads
        )
        k = rng.normal(size=(6, sharded.k_heads, 8))
        v = rng.normal(size=(6, 4, 8))
        sharded.register(0)
        sharded.append_encoded(0, k, v)
        flat.register(0)
        flat.append_encoded(0, k, v)
        from_sharded = sharded.swap_out(0)
        from_flat = flat.swap_out(0)
        assert np.array_equal(from_sharded.k_rows, from_flat.k_rows)
        assert np.array_equal(from_sharded.v_rows, from_flat.v_rows)
        flat.swap_in(1, from_sharded)
        sharded.swap_in(1, from_flat)
        k_flat, v_flat = flat.view(1)
        k_shard, v_shard = sharded.view(1)
        assert np.array_equal(k_flat, k_shard)
        assert np.array_equal(v_flat, v_shard)

    def test_bookkeeping_delegates_consistently(self):
        pool = self._pool(n_shards=2)
        pool.register(0, reserve_tokens=16)
        assert pool.blocks_in_use == pool.slices[1].blocks_in_use
        assert pool.can_fit(32) == pool.slices[0].can_fit(32)
        pool.free(0)
        assert pool.blocks_in_use == 0
        for s in pool.slices:
            assert s.blocks_in_use == 0

    def test_k_heads_must_divide_on_head_borders(self):
        with pytest.raises(ValueError):
            ShardedKVPool(4, 8, k_heads=10, n_shards=2)


# ------------------------------------------------------- engine bit-identity
class TestShardedEngineBitIdentity:
    def test_shard_views_populated_with_dual_counters(self):
        engine, reports = _drain(2)
        busy = [r for r in reports if r.per_sequence]
        assert busy and all(len(r.shard_views) == 2 for r in busy)
        for r in busy:
            for view in r.shard_views:
                assert view.kept_pairs <= view.total_pairs
                assert view.allgather_bits <= view.baseline_allgather_bits
                assert len(view.seq_bits) == len(r.per_sequence)
        assert engine.allgather_bits_total > 0
        assert (
            engine.allgather_bits_total
            < engine.allgather_baseline_bits_total
        )

    def test_unsharded_engine_has_no_shard_views(self):
        _, reports = _drain(1)
        assert all(not r.shard_views for r in reports)

    @settings(deadline=None, max_examples=8)
    @given(
        shards=st.integers(min_value=2, max_value=4),
        n_heads=st.integers(min_value=4, max_value=6),
        preempt=st.booleans(),
        tiering=st.booleans(),
    )
    def test_sharded_bit_identical_to_unsharded(
        self, shards, n_heads, preempt, tiering
    ):
        """The tentpole sweep: K shards (uneven splits included),
        preemption/swap-resume mid-flight, kv-tiering on — outputs and
        every per-head decision must match the unsharded engine bit for
        bit."""
        ref_engine, ref = _drain(
            1, n_heads=n_heads, preempt=preempt, tiering=tiering
        )
        got_engine, got = _drain(
            shards, n_heads=n_heads, preempt=preempt, tiering=tiering
        )
        _assert_reports_identical(ref, got)
        assert ref_engine.counter.k_bits == got_engine.counter.k_bits
        assert ref_engine.counter.v_bits == got_engine.counter.v_bits
        if preempt:
            # the run must actually have exercised the swap path on at
            # least one axis assignment; on this workload the tight
            # arena always preempts
            assert got_engine.preemptions_total == ref_engine.preemptions_total

    def test_preemption_actually_happens_on_tight_arena(self):
        engine, _ = _drain(2, preempt=True)
        assert engine.preemptions_total > 0
        assert engine.resumes_total > 0

    def test_uneven_split_five_heads_three_shards(self):
        _, ref = _drain(1, n_heads=5)
        _, got = _drain(3, n_heads=5)
        _assert_reports_identical(ref, got)

    def test_rejects_more_shards_than_heads(self):
        engine = ServingEngine(CFG, capacity_tokens=256, shards=8)
        (request,) = _requests(np.random.default_rng(0), n_requests=1)
        with pytest.raises(ValueError, match="shard"):
            engine.submit(request)
            engine.step()


# -------------------------------------------------------------- ShardGroup
class TestShardGroup:
    def test_combine_matches_single_call_on_raw_pools(self):
        """K slice-kernel calls concatenated in shard order reproduce the
        one-call result on the same arena contents."""
        rng = np.random.default_rng(4)
        n_heads, head_dim, t = 4, 8, 20
        quant = CFG.quant
        flat = KVCachePool(
            n_heads,
            head_dim,
            capacity_tokens=64,
            block_size=8,
            k_heads=n_heads * quant.n_chunks,
        )
        sharded = ShardedKVPool(
            n_heads,
            head_dim,
            capacity_tokens=64,
            block_size=8,
            k_heads=n_heads * quant.n_chunks,
            n_shards=2,
        )
        k = rng.normal(size=(t, flat.k_heads, head_dim))
        v = rng.normal(size=(t, n_heads, head_dim))
        for pool in (flat, sharded):
            pool.register(0)
            pool.append_encoded(0, k, v)
        qs = rng.normal(size=(1, n_heads, head_dim))
        q_scales = np.abs(qs).max(axis=2) / quant.qmax + 1e-9
        k_scales = (
            np.abs(k).reshape(t, n_heads, quant.n_chunks, head_dim)
            .max(axis=(0, 2, 3))[None, :]
            / quant.qmax
        )
        segments = flat.segments_of([0])
        from repro.core.pruning import token_picker_attention_ragged

        single = token_picker_attention_ragged(
            qs,
            CFG,
            q_scales=q_scales,
            k_scales=k_scales,
            k_plane_arena=flat.k_arena,
            v_arena=flat.v_arena,
            segments=segments,
        )
        group = ShardGroup(sharded, quant)
        combined = group.run(qs, q_scales, k_scales, segments, CFG)
        for x, y in zip(single.results, combined.results):
            assert np.array_equal(x.outputs, y.outputs)
            assert np.array_equal(x.kept, y.kept)
            assert np.array_equal(x.chunks_fetched, y.chunks_fetched)
        assert np.array_equal(single.round_alive, combined.round_alive)

    def test_step_views_account_kept_pairs(self):
        engine, reports = _drain(2)
        for r in reports:
            if not r.shard_views:
                continue
            kept = sum(v.kept_pairs for v in r.shard_views)
            expected = sum(
                int(res.kept.sum()) for res in r.results.values()
            )
            assert kept == expected
