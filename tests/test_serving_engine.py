"""Tests for the continuous-batching serving engine."""

import math

import numpy as np
import pytest

from repro.core import TokenPickerConfig
from repro.core.session import TokenPickerSession
from repro.eval.batching import measured_batch_point
from repro.model.config import get_model_config
from repro.serving import (
    GenerationRequest,
    RequestState,
    Scheduler,
    ServingEngine,
    replayable_step_source,
    synthetic_request,
)

CFG = TokenPickerConfig(threshold=2e-3)


def _engine(**kw):
    defaults = dict(max_batch_size=8, capacity_tokens=4096, seed=0)
    defaults.update(kw)
    return ServingEngine(CFG, **defaults)


def _replayable_request(rng, n_heads=2, prompt=48, head_dim=16, max_new=4):
    """Request whose decode stream is recorded, so sessions can replay it."""
    keys = rng.normal(size=(n_heads, prompt, head_dim))
    values = rng.normal(size=(n_heads, prompt, head_dim))
    source, stream = replayable_step_source(rng, n_heads, head_dim, max_new)
    request = GenerationRequest(
        prompt_keys=keys,
        prompt_values=values,
        max_new_tokens=max_new,
        step_source=source,
    )
    return request, stream


class TestLifecycle:
    def test_submit_step_retire(self):
        rng = np.random.default_rng(0)
        engine = _engine()
        rid = engine.submit(
            synthetic_request(rng, 2, prompt_tokens=32, head_dim=16, max_new_tokens=3)
        )
        assert engine.n_pending == 1
        reports = engine.run_until_drained()
        assert len(reports) == 3
        assert engine.n_active == 0 and engine.n_pending == 0
        assert len(engine.completed) == 1
        done = engine.completed[0]
        assert done.request_id == rid
        assert done.generated_tokens == 3
        assert done.stats.queue_delay_steps == 0
        assert done.stats.service_steps == 2
        assert done.stats.counter.tokens_seen > 0
        assert engine.pool.blocks_in_use == 0

    def test_continuous_admission_and_fifo_order(self):
        rng = np.random.default_rng(1)
        engine = _engine(max_batch_size=2)
        # staggered lengths: sequences retire one at a time, so freed
        # slots refill while the other sequence keeps decoding
        ids = [
            engine.submit(
                synthetic_request(rng, 2, 16, 16, max_new_tokens=new)
            )
            for new in (2, 5, 4, 3, 2)
        ]
        first = engine.step()
        assert first.admitted == ids[:2]  # FIFO
        reports = engine.run_until_drained()
        # continuous refill: retirements and admissions share a step, the
        # batch never drains to zero between waves
        refills = [r for r in reports if r.admitted and r.retired]
        assert refills, "no step both retired and admitted sequences"
        assert all(
            r.batch_size > 0 for r in [first] + reports[:-1]
        )
        assert len(engine.completed) == 5
        assert [c.request_id for c in engine.completed[:2]] == ids[:2]
        waits = {c.request_id: c.stats.queue_delay_steps for c in engine.completed}
        assert waits[ids[0]] == 0
        assert waits[ids[4]] > 0  # queued behind the first batch

    def test_admission_blocked_by_pool_capacity(self):
        rng = np.random.default_rng(2)
        # room for one request's lifetime footprint only
        engine = _engine(max_batch_size=8, capacity_tokens=48, block_size=8)
        for _ in range(2):
            engine.submit(synthetic_request(rng, 2, 32, 16, max_new_tokens=4))
        report = engine.step()
        assert len(report.admitted) == 1  # second waits for blocks, not slots
        assert engine.n_pending == 1
        engine.run_until_drained()
        assert len(engine.completed) == 2

    def test_admission_reserves_lifetime_growth(self):
        """Admission must account for admitted sequences' future tokens,
        not just blocks already written — otherwise decode can exhaust the
        pool mid-flight."""
        rng = np.random.default_rng(10)
        # 4 blocks; each request needs 3 blocks over its lifetime
        engine = _engine(max_batch_size=8, capacity_tokens=64, block_size=16)
        engine.submit(synthetic_request(rng, 2, 16, 16, max_new_tokens=17))
        engine.submit(synthetic_request(rng, 2, 17, 16, max_new_tokens=30))
        report = engine.step()
        assert len(report.admitted) == 1  # second would overcommit blocks
        engine.run_until_drained()  # must never raise PoolExhausted
        assert len(engine.completed) == 2

    def test_oversized_request_rejected_at_submit(self):
        rng = np.random.default_rng(11)
        engine = _engine(capacity_tokens=64, block_size=16)
        with pytest.raises(ValueError, match="pool holds"):
            engine.submit(
                synthetic_request(rng, 2, 100, 16, max_new_tokens=1)
            )
        assert engine.n_pending == 0

    def test_sustains_32_concurrent_sequences(self):
        """Acceptance: >= 32 concurrent sequences with continuous
        admission/retirement through one fused step per iteration."""
        rng = np.random.default_rng(3)
        engine = _engine(max_batch_size=32, capacity_tokens=32 * 48)
        for _ in range(40):
            engine.submit(synthetic_request(rng, 2, 24, 16, max_new_tokens=4))
        reports = engine.run_until_drained()
        assert engine.peak_concurrency == 32
        assert max(r.batch_size for r in reports) == 32
        assert len(engine.completed) == 40
        assert engine.pool.blocks_in_use == 0
        assert engine.counter.total_reduction > 1.0

    def test_ragged_utilization_reflects_context_spread(self):
        rng = np.random.default_rng(9)
        engine = _engine(max_batch_size=2)
        engine.submit(synthetic_request(rng, 2, 16, 16, max_new_tokens=2))
        engine.submit(synthetic_request(rng, 2, 64, 16, max_new_tokens=2))
        report = engine.step()
        # contexts 17 and 65 after the first decode token
        assert report.ragged_utilization == pytest.approx((17 + 65) / (2 * 65))

    def test_arena_fast_path_and_phase_breakdown(self):
        """Pooled decode runs on the float32 digit arena and every busy
        step reports the pack/score/prune/unpack wall-clock split."""
        rng = np.random.default_rng(12)
        engine = _engine()
        engine.submit(synthetic_request(rng, 2, 32, 16, max_new_tokens=3))
        reports = engine.run_until_drained()
        assert engine.pool.k_arena.dtype == np.float32
        busy = [r for r in reports if r.batch_size]
        assert busy
        for report in busy:
            assert set(report.phase_seconds) >= {
                "pack", "score", "prune", "unpack"
            }
            assert all(v >= 0.0 for v in report.phase_seconds.values())

    @pytest.mark.parametrize("shards", [1, 2])
    def test_score_subphases_sum_to_score(self, shards):
        """The kernel books its setup (geometry, scale and margin tables)
        into "score_chunk0", so the two sub-phases account for all of
        "score", on a plain and on a head-sharded engine."""
        rng = np.random.default_rng(13)
        engine = _engine(shards=shards)
        for _ in range(3):
            engine.submit(synthetic_request(rng, 2, 40, 16, max_new_tokens=3))
        busy = [r for r in engine.run_until_drained() if r.batch_size]
        assert busy
        for report in busy:
            phases = report.phase_seconds
            assert phases["score_chunk0"] > 0.0
            assert math.isclose(
                phases["score_chunk0"] + phases["score_refine"],
                phases["score"],
                rel_tol=1e-12,
            )

    def test_empty_step_is_admission_tick(self):
        engine = _engine()
        report = engine.step()
        assert report.batch_size == 0 and not report.admitted
        assert engine.step_index == 1

    def test_run_until_drained_guard(self):
        rng = np.random.default_rng(4)
        engine = _engine()
        engine.submit(synthetic_request(rng, 2, 16, 16, max_new_tokens=5))
        with pytest.raises(RuntimeError):
            engine.run_until_drained(max_steps=2)


class TestEquivalenceWithSessions:
    def test_fused_steps_match_looped_sessions_exactly(self):
        """The engine's fused ragged step must reproduce, bit for bit, the
        pruning decisions and traffic stats of per-sequence sessions."""
        rng = np.random.default_rng(5)
        config = TokenPickerConfig(threshold=1e-2)
        engine = ServingEngine(config, max_batch_size=6, capacity_tokens=4096)
        pairs = [
            _replayable_request(rng, prompt=int(rng.integers(16, 80)), max_new=5)
            for _ in range(6)
        ]
        for request, _ in pairs:
            engine.submit(request)

        kept_per_request = {}
        for report in engine.run_until_drained():
            for sid, view in report.per_sequence.items():
                kept_per_request.setdefault(view.request_id, []).append(
                    report.results[sid].kept
                )

        for request, stream in pairs:
            session = TokenPickerSession(config)
            session.observe_prompt(request.prompt_keys, request.prompt_values)
            keys, values = request.prompt_keys, request.prompt_values
            for step, (q, k, v) in enumerate(stream):
                keys = np.concatenate([keys, k[:, None, :]], axis=1)
                values = np.concatenate([values, v[:, None, :]], axis=1)
                result = session.step(q, keys, values)
                assert np.array_equal(
                    kept_per_request[request.request_id][step], result.kept
                )
            done = next(
                c
                for c in engine.completed
                if c.request_id == request.request_id
            )
            assert done.stats.counter.k_bits == session.counter.k_bits
            assert done.stats.counter.v_bits == session.counter.v_bits
            assert done.stats.counter.tokens_seen == session.counter.tokens_seen
            assert done.stats.counter.tokens_kept == session.counter.tokens_kept
            # clip semantics differ by design: the pooled engine checks each
            # element once (when it enters the cache), the session rescans
            # the full caller-supplied K/V every step
            assert done.stats.clip_events <= session.clip_events


class TestTrafficConsumers:
    @pytest.fixture(scope="class")
    def drained(self):
        rng = np.random.default_rng(6)
        engine = _engine(max_batch_size=8)
        for _ in range(8):
            engine.submit(synthetic_request(rng, 4, 64, 16, max_new_tokens=3))
        reports = engine.run_until_drained()
        return engine, max(reports, key=lambda r: r.batch_size)

    def test_step_from_engine(self, drained):
        from repro.hw.serving import ServingSimulator

        engine, full = drained
        sim = ServingSimulator(get_model_config("gpt2-medium"), 128, config=CFG)
        ours = sim.step_from_engine(full, engine_heads=4)
        base = sim.step_from_engine(full, "baseline", engine_heads=4)
        assert ours.batch_size == full.batch_size == 8
        assert ours.weight_cycles == base.weight_cycles
        assert 0 < ours.attention_cycles < base.attention_cycles
        # ragged per-sequence traffic, not one mean: sequences differ
        bits = [v.stats.total_bits_fetched for v in full.per_sequence.values()]
        assert len(set(bits)) > 1

    def test_measured_batch_point(self, drained):
        engine, full = drained
        stats = [v.stats for v in full.per_sequence.values()]
        point = measured_batch_point(
            get_model_config("gpt2-medium"),
            stats,
            context_length=128,
            engine_heads=4,
        )
        assert point.batch_size == 8
        assert 1.0 < point.step_speedup
        assert point.kv_bytes > point.kv_bytes_pruned
        with pytest.raises(ValueError):
            measured_batch_point(get_model_config("gpt2-medium"), [])


class TestValidation:
    def test_constructor(self):
        with pytest.raises(ValueError):
            ServingEngine(safety_factor=0.9)
        with pytest.raises(ValueError):
            ServingEngine(TokenPickerConfig(schedule="depth"))
        with pytest.raises(ValueError):
            ServingEngine(max_batch_size=0)

    def test_mismatched_request_dims_rejected(self):
        rng = np.random.default_rng(7)
        engine = _engine()
        engine.submit(synthetic_request(rng, 2, 16, 16, max_new_tokens=1))
        engine.step()
        engine.submit(synthetic_request(rng, 4, 16, 16, max_new_tokens=1))
        with pytest.raises(ValueError):
            engine.run_until_drained()

    def test_unknown_sequence(self):
        engine = _engine()
        with pytest.raises(KeyError):
            engine.stats_of(3)


class TestAdmissionEdgeCases:
    def test_zero_pool_headroom_waits_without_hanging(self):
        """With the pool fully committed, admission yields nothing, the
        engine keeps stepping, and the queued request admits on free."""
        rng = np.random.default_rng(20)
        engine = _engine(max_batch_size=8, capacity_tokens=64, block_size=16)
        engine.submit(synthetic_request(rng, 2, 48, 16, max_new_tokens=16))
        report = engine.step()
        assert report.admitted and engine.pool.blocks_free == 0
        engine.submit(synthetic_request(rng, 2, 16, 16, max_new_tokens=4))
        report = engine.step()
        assert not report.admitted and engine.n_pending == 1
        engine.run_until_drained()
        assert len(engine.completed) == 2

    def test_max_new_tokens_zero_rejected_clearly(self):
        rng = np.random.default_rng(21)
        keys = rng.normal(size=(2, 16, 16))
        with pytest.raises(ValueError, match="max_new_tokens"):
            GenerationRequest(
                prompt_keys=keys, prompt_values=keys, max_new_tokens=0
            )

    def test_request_larger_than_pool_rejects_not_hangs(self):
        """An impossible request errors at submit with a clear message and
        never enters the queue, so it cannot head-block admission."""
        rng = np.random.default_rng(22)
        engine = _engine(capacity_tokens=64, block_size=16)
        small = synthetic_request(rng, 2, 16, 16, max_new_tokens=2)
        with pytest.raises(ValueError, match="pool holds"):
            engine.submit(synthetic_request(rng, 2, 64, 16, max_new_tokens=8))
        engine.submit(small)
        assert engine.n_pending == 1
        engine.run_until_drained()
        assert len(engine.completed) == 1


class TestSchedulerBypass:
    def _queue_big_then_small(self, engine):
        """One active request, then a queued big request that cannot fit
        alongside it, then a small one that can."""
        rng = np.random.default_rng(23)
        first = engine.submit(synthetic_request(rng, 2, 48, 16, 16))
        engine.step()  # 4 of 8 blocks committed
        big = engine.submit(synthetic_request(rng, 2, 96, 16, 16))  # 7 blocks
        small = engine.submit(synthetic_request(rng, 2, 32, 16, 16))  # 3
        return first, big, small

    def test_strict_fifo_is_the_default(self):
        engine = _engine(max_batch_size=8, capacity_tokens=128, block_size=16)
        _, big, small = self._queue_big_then_small(engine)
        report = engine.step()
        assert not report.admitted  # the big head blocks the small request
        assert engine.n_pending == 2
        assert engine.scheduler.bypassed_total == 0
        engine.run_until_drained()
        # FIFO preserved: the big request finishes admission-before-small
        order = [c.request_id for c in engine.completed]
        assert order.index(big) < order.index(small)

    def test_small_request_bypasses_blocked_head(self):
        engine = _engine(
            max_batch_size=8,
            capacity_tokens=128,
            block_size=16,
            allow_bypass=True,
        )
        _, big, small = self._queue_big_then_small(engine)
        report = engine.step()
        assert report.admitted == [small]
        assert engine.scheduler.bypassed_total == 1
        assert [r.request_id for r in engine.scheduler.pending] == [big]
        engine.run_until_drained()
        assert len(engine.completed) == 3

    def test_bypass_keeps_left_behind_order(self):
        from repro.serving import Scheduler

        scheduler = Scheduler(max_batch_size=4)
        rng = np.random.default_rng(24)
        requests = [
            synthetic_request(rng, 2, p, 16, max_new_tokens=1)
            for p in (90, 20, 95, 25)
        ]
        for i, r in enumerate(requests):
            r.request_id = i
            scheduler.submit(r)
        admitted = scheduler.admit(
            lambda r: r.prompt_tokens < 50, 0, lambda r: None,
            allow_bypass=True,
        )
        assert [r.request_id for r in admitted] == [1, 3]
        assert [r.request_id for r in scheduler.pending] == [0, 2]


class TestScheduler:
    def test_pack_order_and_utilization(self):
        assert Scheduler.ragged_utilization([10, 10]) == 1.0
        assert Scheduler.ragged_utilization([10, 5]) == pytest.approx(0.75)
        assert Scheduler.ragged_utilization([]) == 1.0

    def test_max_batch_validation(self):
        with pytest.raises(ValueError):
            Scheduler(max_batch_size=0)


class TestChunkedPrefill:
    def _kept_by_request(self, engine):
        out = {}
        for report in engine.run_until_drained():
            for sid, view in report.per_sequence.items():
                out.setdefault(view.request_id, []).append(
                    report.results[sid].kept
                )
        return out

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="prefill_budget_tokens"):
            _engine(prefill_budget_tokens=0)
        with pytest.raises(ValueError, match="prefill_budget_tokens"):
            Scheduler(prefill_budget_tokens=-3)
        assert _engine(prefill_budget_tokens=None).prefill_budget_tokens is None
        assert _engine(prefill_budget_tokens=7).prefill_budget_tokens == 7

    def test_long_prompt_ingests_in_budgeted_chunks(self):
        rng = np.random.default_rng(30)
        engine = _engine(max_batch_size=4, prefill_budget_tokens=16)
        rid = engine.submit(synthetic_request(rng, 2, 50, 16, max_new_tokens=2))
        ingest_steps = []
        while engine.n_pending or engine.n_active:
            report = engine.step()
            if report.prefill_tokens:
                ingest_steps.append(report.prefill_tokens)
                assert report.prefill_tokens <= 16
                assert report.prefill_bits == (
                    report.prefill_tokens * 2 * 2 * 16 * CFG.quant.total_bits
                )
        # 50 prompt tokens at 16/step: 16+16+16+2, then decode begins
        assert ingest_steps == [16, 16, 16, 2]
        done = engine.completed[0]
        assert done.request_id == rid
        assert done.stats.prefill_chunks == 4
        assert engine.prefill_chunks_total == 4
        assert engine.prefill_tokens_total == 50

    def test_unbounded_budget_is_monolithic(self):
        rng = np.random.default_rng(31)
        engine = _engine()
        engine.submit(synthetic_request(rng, 2, 40, 16, max_new_tokens=3))
        report = engine.step()
        # whole prompt in one chunk, decode in the same step
        assert report.prefill_tokens == 40 and report.prefilling == 0
        assert report.batch_size == 1
        done = engine.run_until_drained()
        assert engine.completed[0].stats.prefill_chunks == 1

    def test_decode_priority_leftover_feeds_prefill(self):
        """Active decodes claim one budget token each; only the leftover
        ingests prompt chunks."""
        rng = np.random.default_rng(32)
        engine = _engine(max_batch_size=4, prefill_budget_tokens=10)
        engine.submit(synthetic_request(rng, 2, 8, 16, max_new_tokens=12))
        engine.submit(synthetic_request(rng, 2, 8, 16, max_new_tokens=12))
        engine.step()  # both shorts prefill (8 each, over two steps)
        engine.step()
        assert engine.n_prefilling == 0 and engine.n_active == 2
        engine.submit(synthetic_request(rng, 2, 40, 16, max_new_tokens=1))
        report = engine.step()
        # 10 budget - 2 decoding = 8 tokens of prefill this step
        assert report.prefill_tokens == 8
        assert report.batch_size == 2  # the long request is not decoding yet
        assert report.prefilling == 1
        engine.run_until_drained()
        assert len(engine.completed) == 3

    def test_prefilling_request_state_and_ttft_stamps(self):
        rng = np.random.default_rng(33)
        engine = _engine(max_batch_size=2, prefill_budget_tokens=8)
        request = synthetic_request(rng, 2, 20, 16, max_new_tokens=2)
        engine.submit(request)
        engine.step()
        assert request.state is RequestState.PREFILLING
        engine.run_until_drained()
        assert request.state is RequestState.FINISHED
        stats = engine.completed[0].stats
        # the split stamps order: queued -> prefill start -> first token
        assert 0 < stats.queued_wall <= stats.prefill_start_wall
        assert stats.prefill_start_wall <= stats.first_token_wall
        assert stats.ttft_seconds == pytest.approx(
            stats.queue_wait_seconds + stats.prefill_seconds
        )
        assert stats.queue_wait_seconds >= 0
        assert stats.prefill_seconds > 0

    def test_chunked_outputs_bit_identical_to_monolithic(self):
        """Property: for any budget, chunked prefill reproduces the
        monolithic engine's pruning decisions bit for bit (scales frozen
        once from the full prompt before the first chunk)."""
        for budget in (5, 16, 64, None):
            rng = np.random.default_rng(34)
            pairs = [
                _replayable_request(
                    rng, prompt=int(rng.integers(16, 80)), max_new=4
                )
                for _ in range(5)
            ]
            engine = _engine(prefill_budget_tokens=budget)
            id_map = {}
            for request, _ in pairs:
                clone = GenerationRequest(
                    prompt_keys=request.prompt_keys.copy(),
                    prompt_values=request.prompt_values.copy(),
                    max_new_tokens=request.max_new_tokens,
                    step_source=request.step_source,
                )
                id_map[engine.submit(clone)] = request
            kept = self._kept_by_request(engine)
            for rid, request in id_map.items():
                session_engine = _engine()
                ref_id = session_engine.submit(request)
                ref_kept = self._kept_by_request(session_engine)[ref_id]
                assert len(kept[rid]) == len(ref_kept)
                for a, b in zip(kept[rid], ref_kept):
                    assert np.array_equal(a, b)

    def test_outstanding_tokens_counts_pending_prompt(self):
        rng = np.random.default_rng(35)
        engine = _engine(max_batch_size=2, prefill_budget_tokens=8)
        engine.submit(synthetic_request(rng, 2, 32, 16, max_new_tokens=4))
        before = engine.outstanding_tokens
        assert before == 36
        engine.step()  # 8 tokens ingested, 24 still pending + 4 decodes
        assert engine.outstanding_tokens == 36
        engine.run_until_drained()
        assert engine.outstanding_tokens == 0


class TestSchedulerBypassShortCircuit:
    def test_scan_stops_once_slots_exhausted(self):
        """Regression: once the batch fills mid-scan the bypass loop
        stops — the queue tail is left in place (no wholesale
        pop/re-append churn) and ``can_fit`` is never probed past the
        last admissible slot; pinned via can_fit call order,
        bypassed_total and queue order."""
        scheduler = Scheduler(max_batch_size=2)
        rng = np.random.default_rng(40)
        requests = [
            synthetic_request(rng, 2, p, 16, max_new_tokens=1)
            for p in (90, 20, 25, 95, 30)
        ]
        for i, r in enumerate(requests):
            r.request_id = i
            scheduler.submit(r)
        probed = []

        def can_fit(request):
            probed.append(request.request_id)
            return request.prompt_tokens < 50

        admitted = scheduler.admit(
            can_fit, 0, lambda r: None, allow_bypass=True
        )
        # head (90) blocks; 20 and 25 bypass, filling both slots; the
        # scan stops there: 95 and 30 are never probed
        assert [r.request_id for r in admitted] == [1, 2]
        assert scheduler.bypassed_total == 2
        assert probed == [0, 1, 2]
        assert [r.request_id for r in scheduler.pending] == [0, 3, 4]

    def test_bypass_unfit_candidates_keep_order_before_untouched_tail(self):
        scheduler = Scheduler(max_batch_size=3)
        rng = np.random.default_rng(41)
        requests = [
            synthetic_request(rng, 2, p, 16, max_new_tokens=1)
            for p in (90, 80, 20, 70, 25, 60)
        ]
        for i, r in enumerate(requests):
            r.request_id = i
            scheduler.submit(r)
        admitted = scheduler.admit(
            lambda r: r.prompt_tokens < 50, 1, lambda r: None,
            allow_bypass=True,
        )
        # slots: 3 - 1 active = 2; 20 and 25 admit, scan stops at 60
        assert [r.request_id for r in admitted] == [2, 4]
        assert [r.request_id for r in scheduler.pending] == [0, 1, 3, 5]

    def test_prefill_order_is_admission_order_not_dict_order(self):
        """Regression: a preempt/resume cycle re-inserts a sequence at
        the end of the active dict; leftover budget must still feed the
        earliest-admitted prompt first."""
        rng = np.random.default_rng(37)
        engine = _engine(max_batch_size=4, prefill_budget_tokens=8)
        a = engine.submit(synthetic_request(rng, 2, 24, 16, max_new_tokens=1))
        engine.submit(synthetic_request(rng, 2, 24, 16, max_new_tokens=1))
        engine.step()  # both admitted; the 8-token chunk goes to A
        sid_a, sid_b = sorted(engine._active)
        assert engine._active[sid_a].prefill_pos == 8
        assert engine._active[sid_b].prefill_pos == 0
        # simulate the resume reordering: A re-inserted behind B
        entry_a = engine._active.pop(sid_a)
        engine._active[sid_a] = entry_a
        engine.step()
        assert engine._active[sid_a].prefill_pos == 16  # A still first
        assert engine._active[sid_b].prefill_pos == 0
        engine.run_until_drained()
        assert [c.request_id for c in engine.completed][0] == a
