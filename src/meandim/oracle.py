"""Exhaustive, obviously-correct reference computations on tiny instances.

Everything here trades scale for certainty: subset enumeration for exact
separated/spanning pressures, one per-letter oracle for the whole-space
separated sup of full and grid shifts (``lattice_log_pressure``), direct
prefix enumeration for full shifts, and a dense simplex grid for the
max-min value.  These functions are the ground truth the test suite
certifies the fast paths against; of the CLI, only ``verify`` calls one
(``exact_pressure``).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
import math

import numpy as np

from .numerics import logsumexp
from .orbit_engine import OrbitTable
from .system_zoo import Potential, grid_gap_thresholds

SUBSET_LIMIT = 16  # 2^16 subsets is the enumeration ceiling


@dataclass(frozen=True)
class ExactPressure:
    """Exact sample-restricted pressures with optimizing subsets."""

    n: int
    eps: float
    exact_log_p: float
    exact_log_q: float
    argmax_separated: tuple
    argmin_spanning: tuple


def exact_pressure(t: OrbitTable, f: Potential, n: int, eps: float) -> ExactPressure:
    """Enumerate all sample subsets: max over separated, min over spanning."""
    N = t.size
    if N > SUBSET_LIMIT:
        raise ValueError(f"sample too large for enumeration ({N} > {SUBSET_LIMIT})")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    w = t.birkhoff(f)[:, n] * math.log(1.0 / eps)

    # pairs are judged by the table's own separation rule, so subsets and
    # greedy witnesses share one metric (exact at grid ties)
    bad_pairs = []
    covers = [1 << i for i in range(N)]  # d_n(x, x) = 0 < eps
    for a in range(N):
        for b in range(a + 1, N):
            if not t.is_separated([a, b], n, eps):
                bad_pairs.append((1 << a) | (1 << b))
                covers[a] |= 1 << b
                covers[b] |= 1 << a

    best_p, best_p_mask = -math.inf, 0
    best_q, best_q_mask = math.inf, 0
    for mask in range(1, 1 << N):
        members = [i for i in range(N) if mask >> i & 1]
        lv = logsumexp(w[members])
        if all(mask & bp != bp for bp in bad_pairs):
            if lv > best_p:
                best_p, best_p_mask = lv, mask
        if all(mask & covers[i] for i in range(N)):
            if lv < best_q:
                best_q, best_q_mask = lv, mask

    unpack = lambda m: tuple(i for i in range(N) if m >> i & 1)
    return ExactPressure(
        n=n,
        eps=eps,
        exact_log_p=best_p,
        exact_log_q=best_q,
        argmax_separated=unpack(best_p_mask),
        argmin_spanning=unpack(best_q_mask),
    )


# ---------------------------------------------------------------------------
# lattice shifts: one weighted interval sup per constrained position and axis
# ---------------------------------------------------------------------------


def _check_dyadic_bracket(eps: float, k: int):
    e = Fraction(eps)
    if not Fraction(1, 2 ** (k + 1)) < e <= Fraction(1, 2**k):
        raise ValueError(f"eps={eps} outside the dyadic bracket (2^-{k + 1}, 2^-{k}]")


def lattice_log_pressure(levels: int, m: int, D: int, n: int, eps: float, letter_f,
                         L=None) -> float:
    """Exact log of the (n, eps)-separated sup of sum (1/eps)^(S_n f).

    The sup runs over all words of L letters (None: unbounded) of D indices
    in [0, m) at coordinates a/(levels - 1), for a potential that reads the
    first axis of the leading letter, ``letter_f[a]`` at index a.  Words are
    (n, eps)-close exactly when every axis of every position s differs by
    less than the integer gap t_s of ``grid_gap_thresholds``, so the sup
    factors over the constrained (position, axis) pairs.  Each factor is
    the max weight of letters pairwise >= t_s apart, with weight
    (1/eps)^letter_f[a] on the first axis of positions s < n and 1
    elsewhere: one O(m) pass over a unit-interval graph, exact since
    interval graphs are perfect.  The pass runs on weights scaled by the
    largest, so unit weights count exactly.
    """
    if not 0 < eps <= 1:  # above 1 every pair of words is close
        raise ValueError("eps must lie in (0, 1]")
    log_w = np.asarray(letter_f, dtype=float) * math.log(1.0 / eps)
    if log_w.shape != (m,):
        raise ValueError("need one potential value per letter")
    total = 0.0
    for s, t in enumerate(grid_gap_thresholds(levels, n, eps, L)):
        for axis in range(D):
            lw = log_w if axis == 0 and s < n else np.zeros(m)
            top = float(lw.max())
            best = [0.0] * (m + 1)  # best[i]: max weight among letters < i
            for i, w in enumerate(np.exp(lw - top).tolist()):
                best[i + 1] = max(best[i], w + best[max(i + 1 - t, 0)])
            total += top + math.log(best[-1])
    return total


def transfer_pressure(m: int, f_letter, n: int, k: int, eps: float) -> float:
    """The full m-shift's lattice pressure, eps in (2^-(k+1), 2^-k].

    Kept by that name because the estimate-shift gate of
    ``perfbench/workloads.py`` reads it.
    """
    _check_dyadic_bracket(eps, k)
    return lattice_log_pressure(2, m, 1, n, eps, f_letter)


def enumerate_shift_pressure(m: int, f_letter, n: int, k: int, eps: float) -> float:
    """The full-shift sup by brute force: one summand per (n+k)-prefix.

    Valid for eps in (2^-(k+1), 2^-k], where two words are separated
    exactly when their (n+k)-prefixes differ.  Kept deliberately free of
    the product factorization so it can certify lattice_log_pressure.
    """
    _check_dyadic_bracket(eps, k)
    vals = [float(v) for v in f_letter]
    log_inv = math.log(1.0 / eps)
    weights = []
    for word in iproduct(range(m), repeat=n + k):
        s = 0.0
        for j in range(n):
            s += vals[word[j]]
        weights.append(s * log_inv)
    return logsumexp(weights)


def grid_count_log_pressure(D: int, m: int, n: int, eps: float, L=None) -> float:
    """The zero-potential grid shift's lattice pressure: its log count.

    Kept by that name because the estimate-grid gate of
    ``perfbench/workloads.py`` reads it.
    """
    return lattice_log_pressure(m, m, D, n, eps, np.zeros(m), L)


# ---------------------------------------------------------------------------
# dense simplex grid for the max-min value
# ---------------------------------------------------------------------------

GRID_POINT_CAP = 5_000_000


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def simplex_grid_maxmin(objective_rows: np.ndarray, resolution: int) -> float:
    """Brute-force max over the weight grid of the row-wise minimum.

    objective_rows[j, i] holds the j-th member's value at support point i;
    the grid enumerates all weight vectors with denominator ``resolution``.
    The result is within (max row spread) * (k / resolution) of the true
    max-min and never above it.
    """
    rows = np.asarray(objective_rows, dtype=float)
    k = rows.shape[1]
    n_points = math.comb(resolution + k - 1, k - 1)
    if n_points > GRID_POINT_CAP:
        raise ValueError(f"grid too large: {n_points} > {GRID_POINT_CAP}")
    best = -math.inf
    batch, batch_size = [], 65536
    def flush(best):
        if not batch:
            return best
        p = np.array(batch, dtype=float) / resolution
        vals = (rows @ p.T).min(axis=0)
        m = float(vals.max())
        batch.clear()
        return max(best, m)
    for comp in _compositions(resolution, k):
        batch.append(comp)
        if len(batch) >= batch_size:
            best = flush(best)
    best = flush(best)
    return best
