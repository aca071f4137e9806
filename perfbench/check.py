"""Output check: an independent certificate oracle plus a per-seed digest.

Both parts run after a round, outside its timed region.

*Oracle.*  For a seeded sample of requests and decode ordinals, dense
float64 attention is recomputed from the raw pre-drawn inputs (prompt
K/V plus every decoded token's ``(q, k, v)``) with
:func:`repro.core.attention.pruning_error`, which shares none of the
kernel's chunked fixed-point arithmetic.  Per head it checks:

* no pruned token's exact probability exceeds the threshold in force by
  more than ``PROB_SLACK`` (relative).  The kernel certifies Eq. 5 on
  12-bit quantized q/k with frozen per-head scales, so exact float
  probabilities of tokens it proved below the threshold may sit slightly
  above it; the slack bounds that quantization error;
* the output is the exact output up to what pruning and quantization
  may cost: ``output_linf <= (2 * lost_mass + OUTPUT_TOL) * max|v|``.
  Renormalising over the kept support moves the output by at most
  ``2 * lost_mass * max|v|``; ``OUTPUT_TOL`` bounds what 12-bit q/k/v
  quantization adds on top.

A violation fails the request.

*Digest.*  Every kept mask and output of every request, keyed by
(request index, ordinal), is hashed with SHA-256.  Rounds of one seed
must agree; the self-tests also compare separate processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.attention import pruning_error

#: relative slack on the threshold for exact (unquantized) probabilities
PROB_SLACK = 0.10
#: output error allowed beyond the pruned-mass bound, relative to the
#: head's largest |v| element
OUTPUT_TOL = 0.02
#: requests sampled per round, and ordinals sampled per request
SAMPLED_REQUESTS = 12
SAMPLED_ORDINALS = 4


@dataclass
class CheckResult:
    digest: str
    failed: Dict[int, str] = field(default_factory=dict)
    checked_instances: int = 0
    #: worst exact probability among pruned tokens, / threshold
    worst_pruned_ratio: float = 0.0
    #: worst output error beyond 2 x pruned mass, / the head's max |v|
    worst_output_ratio: float = 0.0


def digest(kept: Dict[Tuple[int, int], tuple]) -> str:
    h = hashlib.sha256()
    for key in sorted(kept):
        mask, out = kept[key]
        h.update(np.asarray(key, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(mask).tobytes())
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


def sample_keys(inputs, seed: int) -> List[Tuple[int, int]]:
    """The (request index, ordinal) pairs the oracle checks."""
    rng = np.random.default_rng([seed, 7])
    n = inputs.n_requests
    picked = rng.choice(n, size=min(SAMPLED_REQUESTS, n), replace=False)
    keys = []
    for i in sorted(int(x) for x in picked):
        steps = len(inputs.streams[i])
        ords = {0, steps - 1}
        ords.update(
            int(x) for x in rng.integers(0, steps, size=SAMPLED_ORDINALS)
        )
        keys.extend((i, o) for o in sorted(ords)[:SAMPLED_ORDINALS + 2])
    return keys


def certify(inputs, i: int, ordinal: int, mask, out, threshold: float):
    """Check one sampled token; returns (problem or "", prob ratio,
    output ratio)."""
    q, keys, values = inputs.context(i, ordinal)
    if mask.shape != keys.shape[:2]:
        return (
            f"kept mask {mask.shape} != context {keys.shape[:2]}",
            0.0,
            0.0,
        )
    worst_p = worst_o = 0.0
    for h in range(keys.shape[0]):
        err = pruning_error(q[h], keys[h], values[h], mask[h], out[h])
        worst_p = max(worst_p, err.max_pruned_probability / threshold)
        worst_o = max(
            worst_o,
            err.output_linf / np.abs(values[h]).max()
            - 2.0 * err.lost_probability_mass,
        )
    if worst_p > 1.0 + PROB_SLACK:
        return f"pruned p = {worst_p:.3f} x threshold", worst_p, worst_o
    if worst_o > OUTPUT_TOL:
        return f"output error {worst_o:.4f} x max|v| beyond the pruned mass", worst_p, worst_o
    return "", worst_p, worst_o


def check_round(log, seed: int, threshold: float) -> CheckResult:
    """Digest every token of the round and certify the sampled ones.

    A request that did not finish, or produced a wrong number of tokens,
    fails too."""
    inputs = log.inputs
    result = CheckResult(digest=digest(log.kept))
    for i in range(inputs.n_requests):
        made = log.produced.get(i, 0)
        if i not in log.finished or made != len(inputs.streams[i]):
            result.failed[i] = f"produced {made} of {len(inputs.streams[i])}"
    for i, ordinal in sample_keys(inputs, seed):
        token = log.kept.get((i, ordinal))
        if token is None:
            continue
        problem, p_ratio, o_ratio = certify(
            inputs, i, ordinal, token[0], token[1], threshold
        )
        result.checked_instances += 1
        result.worst_pruned_ratio = max(result.worst_pruned_ratio, p_ratio)
        result.worst_output_ratio = max(result.worst_output_ratio, o_ratio)
        if problem:
            result.failed.setdefault(i, f"ordinal {ordinal}: {problem}")
    return result
