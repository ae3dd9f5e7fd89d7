"""Exhaustive, obviously-correct reference computations on tiny instances.

Everything here trades scale for certainty: subset enumeration for exact
separated/spanning pressures, direct prefix enumeration and closed forms
for full shifts, per-letter counting for grid shifts, and a dense simplex
grid for the max-min value.  These functions are the ground truth the
test suite certifies the fast paths against; they are not wired into the
CLI.
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
# full-shift closed forms
# ---------------------------------------------------------------------------


def _check_dyadic_bracket(eps: float, k: int):
    e = Fraction(eps)
    if not Fraction(1, 2 ** (k + 1)) < e <= Fraction(1, 2**k):
        raise ValueError(f"eps={eps} outside the dyadic bracket (2^-{k + 1}, 2^-{k}]")


def transfer_pressure(m: int, f_letter, n: int, k: int, eps: float) -> float:
    """Exact log separated-sup pressure of the full m-shift.

    Valid for potentials determined by the leading letter and
    eps in (2^-(k+1), 2^-k]: two words are (n,eps)-separated exactly when
    their (n+k)-prefixes differ, so the sup is a product over positions:

        log P_n = k*log(m) + n*log( sum_a (1/eps)^f(a) ).
    """
    _check_dyadic_bracket(eps, k)
    vals = np.asarray(f_letter, dtype=float)
    if vals.shape != (m,):
        raise ValueError("need one potential value per letter")
    per_step = logsumexp(vals * math.log(1.0 / eps))
    return k * math.log(m) + n * per_step


def enumerate_shift_pressure(m: int, f_letter, n: int, k: int, eps: float) -> float:
    """Same quantity by brute force: one summand per (n+k)-prefix.

    Kept deliberately free of the product factorization so it can certify
    transfer_pressure.
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


# ---------------------------------------------------------------------------
# grid-shift counting (zero potential)
# ---------------------------------------------------------------------------


def grid_separated_count(m: int, threshold: Fraction) -> int:
    """Max number of pairwise >= threshold points in {0, 1/(m-1), .., 1}.

    These are one-letter words at n = 1: with t the gap of
    ``grid_gap_thresholds`` (threshold > 0), points a/(m-1) are pairwise
    >= threshold apart exactly when their indices are t apart, so at most
    (m-1)//t + 1 of them fit; with no gap (t > m-1) only one fits.
    """
    return math.prod((m - 1) // t + 1 for t in grid_gap_thresholds(m, 1, threshold, 1))


def grid_count_log_pressure(D: int, m: int, n: int, eps: float, L=None) -> float:
    """Exact log of the maximal (n,eps)-separated count of the grid shift.

    Zero potential, words of length L (None: unbounded).  Two words are
    (n,eps)-close exactly when every axis of every position s differs by
    less than the integer gap t_s of ``grid_gap_thresholds``, so the count
    factors over positions and axes:

        log N_n(eps) = D * sum_s log((m-1)//t_s + 1),

    the sum running over the constrained positions s < L; every other
    position contributes one class.  Each factor is exact (interval graphs
    are perfect), and the rational thresholds keep the boundary cases (eps
    hitting a grid multiple) honest.
    """
    e = Fraction(eps)
    if not 0 < e < 1:
        raise ValueError("eps must lie in (0,1)")
    return sum((D * math.log((m - 1) // t + 1) for t in grid_gap_thresholds(m, n, e, L)), 0.0)


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
