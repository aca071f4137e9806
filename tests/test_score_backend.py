"""Pluggable score-backend contract: resolution, fallback and parity.

The lazy kernel dispatches its two contraction primitives through
:func:`repro.core.score_backend.resolve_backend`.  The load-bearing
properties:

* ``"numpy"`` always resolves; ``"numba"`` resolves to the compiled
  primitives when numba is installed and *degrades gracefully* (one
  ``RuntimeWarning`` per process, then silence) to the bit-identical
  NumPy implementation when it is not — so configs carrying the flag
  are portable to machines without numba.
* ``"eager"`` (the retired full-table score phase) is rejected by the
  resolver, the config and the CLI alike.
* The compiled primitives match the NumPy ones bit for bit on every
  accumulation dtype (exact integers make the order irrelevant).
"""

import warnings

import numpy as np
import pytest

from repro.core import TokenPickerConfig, token_picker_attention_ragged
from repro.core.config import VALID_SCORE_BACKENDS
from repro.core.score_backend import (
    NUMBA_AVAILABLE,
    numba_available,
    resolve_backend,
)


def _contraction_case(rng, dtype, total=60, n_heads=3, n_chunks=3, d=16):
    planes = rng.integers(-8, 16, size=(total, n_heads, n_chunks, d)).astype(
        np.float32 if dtype == np.float32 else np.float64
    )
    bounds = np.sort(rng.choice(total - 1, size=3, replace=False) + 1)
    st = np.concatenate([[0], bounds]).astype(np.int64)
    en = np.concatenate([bounds, [total]]).astype(np.int64)
    q = rng.integers(-2048, 2048, size=(st.size, n_heads, d)).astype(
        np.float32 if dtype == np.float32 else np.float64
    )
    return planes, st, en, q


class TestResolution:
    def test_numpy_always_resolves(self):
        backend = resolve_backend("numpy")
        assert backend.name == "numpy"
        assert backend.compiled is False

    def test_eager_is_not_a_contraction_backend(self):
        with pytest.raises(ValueError, match="unknown score backend"):
            resolve_backend("eager")

    def test_eager_config_rejected_naming_valid_backends(self):
        assert "eager" not in VALID_SCORE_BACKENDS
        with pytest.raises(ValueError) as excinfo:
            TokenPickerConfig(score_backend="eager")
        for name in VALID_SCORE_BACKENDS:
            assert repr(name) in str(excinfo.value)

    def test_cli_rejects_eager_kernel_backend(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--kernel-backend", "eager"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "invalid choice: 'eager'" in capsys.readouterr().err

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown score backend"):
            resolve_backend("cuda")

    def test_config_validates_backend_names(self):
        for name in VALID_SCORE_BACKENDS:
            assert TokenPickerConfig(score_backend=name).score_backend == name
        with pytest.raises(ValueError, match="score_backend"):
            TokenPickerConfig(score_backend="fortran")

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_numba_falls_back_with_one_warning(self):
        import repro.core.score_backend as sb

        sb._warned_numba_missing = False
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                backend = resolve_backend("numba")
            assert backend.name == "numpy"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # second resolve is silent
                assert resolve_backend("numba").name == "numpy"
        finally:
            sb._warned_numba_missing = False

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_numba_resolves_compiled(self):
        backend = resolve_backend("numba")
        assert backend.name == "numba"
        assert backend.compiled is True

    def test_numba_available_reports_import_state(self):
        assert numba_available() is NUMBA_AVAILABLE


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
class TestCompiledParity:
    """The compiled primitives are bit-identical to NumPy's."""

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int64], ids=str
    )
    def test_contract_chunk0_matches(self, dtype):
        rng = np.random.default_rng(0)
        planes, st, en, q = _contraction_case(
            rng, np.float64 if dtype == np.int64 else dtype
        )
        if dtype == np.int64:
            planes = planes.astype(np.int64)
            q = q.astype(np.int64)
        planes_c0 = np.ascontiguousarray(planes[:, :, 0, :])
        ref = np.zeros((planes.shape[1], planes.shape[0]), dtype=dtype)
        out = np.ones_like(ref)
        resolve_backend("numpy").contract_chunk0(planes_c0, q, st, en, ref)
        resolve_backend("numba").contract_chunk0(planes_c0, q, st, en, out)
        assert np.array_equal(ref, out)

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int64], ids=str
    )
    def test_contract_pairs_matches(self, dtype):
        rng = np.random.default_rng(1)
        planes, st, en, q = _contraction_case(
            rng, np.float64 if dtype == np.int64 else dtype
        )
        total, n_heads = planes.shape[0], planes.shape[1]
        n_pairs = 40
        t_idx = rng.integers(0, total, size=n_pairs)
        h_idx = rng.integers(0, n_heads, size=n_pairs)
        q_pair = rng.integers(-2048, 2048, size=(n_pairs, planes.shape[3]))
        q_pair = q_pair.astype(
            np.int64 if dtype == np.int64 else planes.dtype
        )
        ref = np.zeros(n_pairs, dtype=dtype)
        out = np.ones_like(ref)
        resolve_backend("numpy").contract_pairs(
            planes, 1, t_idx, h_idx, q_pair, ref
        )
        resolve_backend("numba").contract_pairs(
            planes, 1, t_idx, h_idx, q_pair, out
        )
        assert np.array_equal(ref, out)


class TestNumbaConfigPortability:
    def test_numba_config_runs_and_matches_numpy(self):
        """``score_backend="numba"`` must produce the numpy backend's
        exact outputs whether or not numba is installed — compiled
        parity when present, graceful fallback when absent."""
        import repro.core.score_backend as sb
        from test_ragged_kernel import _build_arena, _make_batch

        rng = np.random.default_rng(2)
        n_seqs, n_heads, head_dim = 4, 2, 16
        qs, keys, values, _ = _make_batch(
            rng, n_seqs, n_heads, head_dim, 80, with_bias=False
        )
        q_sc = rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
        k_sc = rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
        v_sc = rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))

        def run(backend):
            config = TokenPickerConfig(
                threshold=2e-3, score_backend=backend
            )
            k_arena, v_arena, segments = _build_arena(
                keys, values, k_sc, v_sc, config.quant, np.float32
            )
            return token_picker_attention_ragged(
                qs, config,
                k_plane_arena=k_arena, segments=segments,
                q_scales=q_sc, k_scales=k_sc, v_arena=v_arena,
            )

        sb._warned_numba_missing = False
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                via_numba = run("numba")
        finally:
            sb._warned_numba_missing = False
        via_numpy = run("numpy")
        for a, b in zip(via_numba.results, via_numpy.results):
            assert np.array_equal(a.kept, b.kept)
            assert np.array_equal(a.chunks_fetched, b.chunks_fetched)
            assert np.array_equal(a.scores, b.scores)
            assert np.array_equal(a.probs, b.probs)
            assert np.array_equal(a.outputs, b.outputs)
            assert np.array_equal(a.log_denominators, b.log_denominators)
