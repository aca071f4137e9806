"""Pluggable inner loops for the lazy alive-set score kernel.

The ragged kernel's lazy score phase (see
:func:`repro.core.pruning.token_picker_attention_ragged`) spends its
time in two small contraction primitives:

* **chunk-0** — every token's first-chunk digit row dotted with its
  sequence's query, the one unavoidable full-width pass (round 1 of the
  paper's MSB-first refinement fetches chunk 0 of *every* token); and
* **pairs** — each later refinement round gathers just the surviving
  ``(head, token)`` pairs' next chunk digit and extends their partial
  scores, so per-round cost scales with the alive set.

Both produce *exact integers* under the kernel's established exactness
gates (float64 when ``2 * total_bits - 2 + bit_length(head_dim - 1) <=
52``, float32 when the digit dot stays below ``2**24``, int64
otherwise), so any backend that sums the same products returns
bit-identical results regardless of accumulation order — there is no
floating-point reassociation to reason about, which is what makes a
compiled backend safe to drop in.

Backends (selected via :attr:`repro.core.config.TokenPickerConfig.
score_backend` or the CLI's ``--kernel-backend``):

* ``"numpy"`` (default) — vectorised gathers + ``einsum``; always
  available.
* ``"numba"`` — ``@njit``-compiled loops over the same arrays, skipping
  the intermediate gather copies.  Optional: when numba is not
  installed, :func:`resolve_backend` falls back to the NumPy
  implementation with a single warning, so the flag is safe to set in
  configs that run on machines without numba.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the common case in this repo
    njit = None
    NUMBA_AVAILABLE = False


def numba_available() -> bool:
    """Whether the compiled backend can actually compile."""
    return NUMBA_AVAILABLE


@dataclass(frozen=True)
class ScoreBackend:
    """The two contraction primitives the lazy score phase dispatches to.

    ``contract_chunk0(planes_c0, q_seg, st, en, out)`` writes every
    token's digit/query dot product for one chunk slice into ``out``
    (H, total): ``planes_c0`` is a (total, H, d) single-chunk digit
    view (chunk 0 on every call's first round — already cast to int64
    on the wide-format fallback path — and a later chunk when a
    refinement round is still dense enough that a full-width extension
    beats pair gathers), ``q_seg`` the (n_live, H, d) per-segment query
    codes in the same dtype, and ``st``/``en`` the segment column
    spans.

    ``contract_pairs(planes, chunk, t_idx, h_idx, q_pair, out)`` writes
    the alive pairs' next-chunk dot products into ``out`` (A,):
    ``planes`` is the full (total, H, C, d) arena digit view (float
    storage even on the int64 path — digits are exact small integers,
    so the per-element cast is lossless), ``t_idx``/``h_idx`` the alive
    ``(token, head)`` coordinates and ``q_pair`` the (A, d) gathered
    query rows.  ``out.dtype`` selects integer accumulation.
    """

    name: str
    compiled: bool
    contract_chunk0: Callable
    contract_pairs: Callable


# --------------------------------------------------------------- numpy
def _contract_chunk0_numpy(planes_c0, q_seg, st, en, out) -> None:
    # one einsum per segment: the query is constant within a segment, so
    # this never materialises a (total, H, d) per-token query gather
    for i in range(st.shape[0]):
        lo, hi = int(st[i]), int(en[i])
        np.einsum("thd,hd->ht", planes_c0[lo:hi], q_seg[i], out=out[:, lo:hi])


def _contract_pairs_numpy(planes, chunk, t_idx, h_idx, q_pair, out) -> None:
    rows = planes[t_idx, h_idx, chunk]  # (A, d) gather
    if out.dtype == np.int64 and rows.dtype != np.int64:
        rows = rows.astype(np.int64)  # lossless: digits are exact ints
    np.einsum("ad,ad->a", rows, q_pair, out=out)


_NUMPY_BACKEND = ScoreBackend(
    name="numpy",
    compiled=False,
    contract_chunk0=_contract_chunk0_numpy,
    contract_pairs=_contract_pairs_numpy,
)


# --------------------------------------------------------------- numba
_NUMBA_BACKEND = None

if NUMBA_AVAILABLE:  # pragma: no cover - exercised by the CI numba leg

    @njit(cache=True)
    def _contract_chunk0_jit(planes_c0, q_seg, st, en, out):
        n_heads = out.shape[0]
        d = planes_c0.shape[2]
        for i in range(st.shape[0]):
            for t in range(st[i], en[i]):
                for h in range(n_heads):
                    acc = planes_c0[t, h, 0] * q_seg[i, h, 0]
                    for k in range(1, d):
                        acc += planes_c0[t, h, k] * q_seg[i, h, k]
                    out[h, t] = acc

    @njit(cache=True)
    def _contract_pairs_float_jit(planes, chunk, t_idx, h_idx, q_pair, out):
        d = planes.shape[3]
        for a in range(t_idx.shape[0]):
            t = t_idx[a]
            h = h_idx[a]
            acc = planes[t, h, chunk, 0] * q_pair[a, 0]
            for k in range(1, d):
                acc += planes[t, h, chunk, k] * q_pair[a, k]
            out[a] = acc

    @njit(cache=True)
    def _contract_pairs_int_jit(planes, chunk, t_idx, h_idx, q_pair, out):
        d = planes.shape[3]
        for a in range(t_idx.shape[0]):
            t = t_idx[a]
            h = h_idx[a]
            acc = np.int64(planes[t, h, chunk, 0]) * q_pair[a, 0]
            for k in range(1, d):
                acc += np.int64(planes[t, h, chunk, k]) * q_pair[a, k]
            out[a] = acc

    def _contract_pairs_numba(planes, chunk, t_idx, h_idx, q_pair, out):
        if out.dtype == np.int64 and planes.dtype != np.int64:
            _contract_pairs_int_jit(planes, chunk, t_idx, h_idx, q_pair, out)
        else:
            _contract_pairs_float_jit(planes, chunk, t_idx, h_idx, q_pair, out)

    _NUMBA_BACKEND = ScoreBackend(
        name="numba",
        compiled=True,
        contract_chunk0=_contract_chunk0_jit,
        contract_pairs=_contract_pairs_numba,
    )


_warned_numba_missing = False


def resolve_backend(name: str) -> ScoreBackend:
    """Map a ``score_backend`` config value to its contraction primitives.

    ``"numba"`` degrades gracefully to the NumPy implementation (with one
    warning per process) when numba is not installed — the two backends
    are bit-identical by construction, so the fallback only costs speed.
    """
    if name == "numpy":
        return _NUMPY_BACKEND
    if name == "numba":
        if _NUMBA_BACKEND is not None:
            return _NUMBA_BACKEND
        global _warned_numba_missing
        if not _warned_numba_missing:
            _warned_numba_missing = True
            warnings.warn(
                "score_backend='numba' requested but numba is not "
                "installed; falling back to the bit-identical NumPy "
                "implementation",
                RuntimeWarning,
                stacklevel=2,
            )
        return _NUMPY_BACKEND
    raise ValueError(
        f"unknown score backend {name!r}; valid: 'numpy', 'numba'"
    )
