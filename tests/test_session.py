"""Tests for the streaming decode session (frozen calibrated scales)."""

import numpy as np
import pytest

from repro.core import (
    QuantConfig,
    TokenPickerConfig,
    token_picker_attention_batched,
)
from repro.core.session import TokenPickerSession


def _prompt_and_steps(seed=0, h=2, t=64, d=16, n_steps=4):
    rng = np.random.default_rng(seed)
    keys = rng.normal(size=(h, t, d))
    values = rng.normal(size=(h, t, d))
    steps = []
    for s in range(n_steps):
        tt = t + s + 1
        k = rng.normal(size=(h, tt, d))
        v = rng.normal(size=(h, tt, d))
        q = k[:, -5] * 2 + 0.3 * rng.normal(size=(h, d))
        steps.append((q, k, v))
    return keys, values, steps


class TestCalibration:
    def test_requires_prompt_first(self):
        session = TokenPickerSession()
        with pytest.raises(RuntimeError):
            session.step(np.zeros((2, 8)), np.zeros((2, 4, 8)), np.zeros((2, 4, 8)))

    def test_scales_positive(self):
        keys, values, _ = _prompt_and_steps()
        session = TokenPickerSession()
        scales = session.observe_prompt(keys, values)
        assert np.all(scales.q_scale > 0)
        assert np.all(scales.k_scale > 0)
        assert np.all(scales.v_scale > 0)

    def test_safety_factor_widens(self):
        keys, values, _ = _prompt_and_steps()
        tight = TokenPickerSession(safety_factor=1.0).observe_prompt(keys, values)
        wide = TokenPickerSession(safety_factor=1.5).observe_prompt(keys, values)
        assert np.all(wide.k_scale > tight.k_scale)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenPickerSession(safety_factor=0.9)
        with pytest.raises(ValueError):
            TokenPickerSession(config=TokenPickerConfig(schedule="depth"))
        session = TokenPickerSession()
        with pytest.raises(ValueError):
            session.observe_prompt(np.zeros((2, 4, 8)), np.zeros((2, 4, 9)))


class TestSteps:
    def test_stats_accumulate(self):
        keys, values, steps = _prompt_and_steps()
        session = TokenPickerSession(TokenPickerConfig(threshold=1e-2))
        session.observe_prompt(keys, values)
        for q, k, v in steps:
            r = session.step(q, k, v)
            assert r.outputs.shape == q.shape
        assert session.steps == len(steps)
        assert session.counter.tokens_seen > 0
        assert session.counter.k_bits <= session.counter.baseline_k_bits

    def test_matches_oracle_scales_when_calibration_covers(self):
        """With a generous safety factor the frozen-scale decisions are
        close to oracle per-call scales."""
        keys, values, steps = _prompt_and_steps(seed=1)
        cfg = TokenPickerConfig(threshold=1e-2)
        session = TokenPickerSession(cfg, safety_factor=1.6)
        session.observe_prompt(keys, values)
        q, k, v = steps[0]
        frozen = session.step(q, k, v)
        oracle = token_picker_attention_batched(q, k, v, cfg)
        agree = (frozen.kept == oracle.kept).mean()
        assert agree > 0.9

    def test_clip_events_counted(self):
        keys, values, steps = _prompt_and_steps(seed=2)
        session = TokenPickerSession(TokenPickerConfig(threshold=1e-2),
                                     safety_factor=1.0)
        session.observe_prompt(keys * 0.01, values * 0.01)  # too-narrow window
        q, k, v = steps[0]
        session.step(q, k, v)
        assert session.clip_events > 0
        assert session.clip_rate > 0

    def test_values_clips_counted(self):
        """Saturating V elements must show up in clip_rate: V travels the
        same quantized fetch path as Q/K (full V saturation coverage)."""
        keys, values, steps = _prompt_and_steps(seed=5)
        session = TokenPickerSession(TokenPickerConfig(threshold=1e-2),
                                     safety_factor=1.0)
        session.observe_prompt(keys, values)
        q, k, v = steps[0]
        # keep Q/K inside the calibrated window; blow up only V
        limit_q = session.scales.q_scale.max() * session.config.quant.qmax
        limit_k = session.scales.k_scale.max() * session.config.quant.qmax
        q = np.clip(q, -limit_q, limit_q)
        k = np.clip(k, -limit_k, limit_k)
        session.step(q, k, v * 100.0)
        assert session.clip_events > 0
        assert session.clip_rate > 0

    def test_no_clips_with_headroom(self):
        keys, values, steps = _prompt_and_steps(seed=3)
        session = TokenPickerSession(TokenPickerConfig(threshold=1e-2),
                                     safety_factor=3.0)
        session.observe_prompt(keys, values)
        q, k, v = steps[0]
        session.step(q, k, v)
        # generous headroom: clipping should be rare or absent
        assert session.clip_rate < 0.05

    def test_recalibration_preserves_accumulated_stats(self):
        """A second observe_prompt refreshes the scales but must not reset
        the session's traffic and clip accounting."""
        keys, values, steps = _prompt_and_steps(seed=6)
        session = TokenPickerSession(TokenPickerConfig(threshold=1e-2),
                                     safety_factor=1.0)
        session.observe_prompt(keys * 0.01, values * 0.01)
        q, k, v = steps[0]
        session.step(q, k, v)
        bits_before = session.counter.k_bits
        clips_before = session.clip_events
        assert bits_before > 0 and clips_before > 0
        old_scales = session.scales
        session.observe_prompt(keys, values)  # recalibrate wider
        assert session.counter.k_bits == bits_before
        assert session.clip_events == clips_before
        assert np.all(session.scales.k_scale > old_scales.k_scale)
        q, k, v = steps[1]
        session.step(q, k, v)
        assert session.counter.k_bits > bits_before

    def test_explicit_query_calibration(self):
        keys, values, steps = _prompt_and_steps(seed=4)
        rng = np.random.default_rng(9)
        queries = rng.normal(size=keys.shape) * 4
        session = TokenPickerSession(TokenPickerConfig(threshold=1e-2))
        scales_with_q = session.observe_prompt(keys, values, queries=queries)
        session2 = TokenPickerSession(TokenPickerConfig(threshold=1e-2))
        scales_without = session2.observe_prompt(keys, values)
        assert np.all(scales_with_q.q_scale >= scales_without.q_scale)


class TestMatchesBatchedReference:
    """A session step is one fused arena call; against the rectangular
    reference run with the session's frozen scales it follows the
    bound-score contract."""

    @pytest.mark.parametrize(
        "quant, narrow, with_bias",
        [
            (QuantConfig(12, 4), True, False),  # clipping window
            (QuantConfig(12, 4), False, True),  # ALiBi-style bias
            (QuantConfig(26, 13), False, False),  # int64 fallback
            (QuantConfig(26, 13), True, True),
        ],
        ids=["clip", "bias", "int64", "int64-clip-bias"],
    )
    def test_step_matches_batched_with_frozen_scales(
        self, quant, narrow, with_bias
    ):
        keys, values, steps = _prompt_and_steps(seed=11, d=24, n_steps=5)
        config = TokenPickerConfig(threshold=2e-3, quant=quant)
        session = TokenPickerSession(
            config, safety_factor=1.0 if narrow else 1.25
        )
        shrink = 0.5 if narrow else 1.0
        session.observe_prompt(keys * shrink, values * shrink)
        scales = session.scales
        n_pruned = 0
        for q, k, v in steps:
            q = 3 * q  # a peaked query, so pruning has work to do
            t = k.shape[1]
            bias = None
            if with_bias:
                slopes = np.arange(1, k.shape[0] + 1)[:, None]
                bias = -0.05 * slopes * np.arange(t)[::-1][None, :]
            result = session.step(q, k, v, score_bias=bias)
            reference = token_picker_attention_batched(
                q, k, v, config, score_bias=bias,
                q_scales=scales.q_scale, k_scales=scales.k_scale,
                v_scales=scales.v_scale,
            )
            for field in (
                "kept", "chunks_fetched", "probs", "outputs",
                "log_denominators",
            ):
                assert np.array_equal(
                    getattr(result, field), getattr(reference, field)
                ), field
            kept = reference.kept
            assert np.array_equal(result.scores[kept], reference.scores[kept])
            # pruned tokens report their certified upper bound
            assert np.all(result.scores[~kept] >= reference.scores[~kept])
            assert result.stats() == reference.stats()
            n_pruned += int((~kept).sum())
        assert n_pruned > 0
        if narrow:
            assert session.clip_events > 0
