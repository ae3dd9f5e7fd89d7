"""Computable dynamical systems, metrics and potentials.

Every system is a concrete, finitary presentation whose samples are
arrays, one row per point, and sampling is seeded.  Shift-type systems
store truncated words, so each carries a horizon (number of valid orbit
points).

Orbit tables read a system through two vectorized calls on a sample,
``steps`` and ``closeness``, and a potential through its array form
over the step data.  A sample is one array:

* a finite system's, an int array of point indices;
* a shift's, and its exhaustive word list (``enumerate_words``), one
  small-int (N, L, D) array of lattice letters, built by
  ``lattice_words`` from letter codes (``rng.integers`` draws, or the
  digits of ``arange(m**(L*D))``).

A shift's closeness tests and ``oracle.lattice_log_pressure`` read one walk
of integer letter gaps, ``lattice_gaps``.  A dictionary member m_hat - f is
``shifted_potential(scaled_potential(f, -1.0), m_hat)``.

Systems built here:

* ``make_finite_system``  -- explicit metric matrix + index map (the exact
  test substrate: every pressure quantity on it is enumerable).
* ``make_full_shift``     -- words over {0..m-1}, first-disagreement metric.
* ``make_grid_shift``     -- words over a uniform grid in [0,1]^D with the
  weighted sup metric d(x,y) = max_k 2^-k * ||x_k - y_k||_inf.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import count as icount
from typing import Callable, Iterator, Optional

import numpy as np

FINITE_HORIZON = 10**9  # finite systems never truncate


class MetricError(ValueError):
    """Raised when a distance matrix fails the metric axioms."""


@dataclass(frozen=True, eq=False)
class System:
    """A computable dynamical system (X, T, d) with sampling.

    ``sample(count, seed)`` returns an array sample, one row per point
    (see the module docstring), and ``points``, when the space is finite,
    is every point as such a sample, ``arange(n)``.
    ``horizon`` counts the valid orbit points x, Tx, ..., T^(horizon-1) x.
    ``lip_map`` is the map's Lipschitz constant: the max of d(Tx,Ty)/d(x,y)
    on a finite system, 2 on a shift.
    ``lead_bound``, when present, bounds the first coordinate of the
    leading letter: it lies in [0, lead_bound] (m-1 for the full shift,
    1.0 for the grid shift).
    ``steps(sample, n)`` is the sample's (N, n) step data, entry [i, j]
    standing for T^j(sample[i]) as array potentials read it: a point index
    (finite) or the first-axis letter over levels - 1 (shifts).
    ``pairwise_dist(sample, k=0)``, on a finite system, is the (N, N) float
    matrix of d(T^k sample[i], T^k sample[j]); a shift has None.
    ``closeness(sample, steps, eps)``, the exact rule of "max over
    k in ``steps`` of d(T^k x, T^k y) < eps", yields tests ``(key, column,
    relation)`` in step order, and a reader may stop early.  Column is an
    (N,) int array over the sample, relation a (V, V) bool matrix over its
    values or None for equality.  Points i and j are close exactly when
    ``relation[column[i], column[j]]`` holds in every test; equal keys on
    one sample name equal tests.
    """

    name: str
    sample: Callable[[int, int], np.ndarray]
    horizon: int
    pairwise_dist: Optional[Callable[..., np.ndarray]]
    steps: Callable[[np.ndarray, int], np.ndarray]
    closeness: Callable[..., Iterator[tuple]]
    lip_map: float
    points: Optional[np.ndarray] = None  # every point, when the space is finite
    lead_bound: Optional[float] = None


@dataclass(frozen=True, eq=False)
class Potential:
    """A real observable with an honest Lipschitz constant and sup bound.

    ``lip`` must be a valid upper bound: the finite-level sandwich checks
    use gamma(eps) = lip * eps as the modulus of continuity, which is only
    sound if lip really dominates |f(x)-f(y)| / d(x,y).

    ``array(x)`` is f at every entry of an array x of its system's step
    data (``System.steps``).

    ``order``, on a nonzero scaling or a shift of a potential, is ``(base,
    sign)``: every S_n of f is ordered as sign * S_n of ``base``, exactly,
    while f's own float sums may break the base's ties either way.
    """

    lip: float
    sup_norm: float
    name: str
    array: Callable[[np.ndarray], np.ndarray]
    order: Optional[tuple] = None


# ---------------------------------------------------------------------------
# finite systems
# ---------------------------------------------------------------------------


def check_metric_matrix(dm: np.ndarray):
    """Validate symmetry, zero diagonal and triangle inequality (1e-12).

    Raises MetricError naming the violating entry or triple.
    """
    dm = np.asarray(dm, dtype=float)
    n = dm.shape[0]
    if dm.ndim != 2 or dm.shape[1] != n:
        raise MetricError("distance matrix must be square")
    if np.any(dm < 0):
        i, j = np.argwhere(dm < 0)[0]
        raise MetricError(f"negative distance at ({i},{j})")
    if np.any(np.diag(dm) != 0):
        i = int(np.flatnonzero(np.diag(dm) != 0)[0])
        raise MetricError(f"nonzero diagonal at ({i},{i})")
    if not np.array_equal(dm, dm.T):
        i, j = np.argwhere(dm != dm.T)[0]
        raise MetricError(f"asymmetry at ({i},{j})")
    for i in range(n):
        # bad[j, k]: dm[i, j] > dm[i, k] + dm[k, j] + 1e-12
        bad = dm[i][:, None] > dm[i][None, :] + dm.T + 1e-12
        if bad.any():
            j, k = np.argwhere(bad)[0]
            raise MetricError(
                f"triangle violation at triple ({i},{j},{k}): "
                f"{dm[i, j]} > {dm[i, k]} + {dm[k, j]}"
            )


def _max_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """The max of num / den over the entries with den > 0 (0.0 if none)."""
    pos = den > 0
    return float(np.max(num[pos] / den[pos], initial=0.0))


def make_finite_system(dist_matrix, map_table, name="finite") -> System:
    """Finite system from an explicit metric matrix and an index map.

    Points are the matrix indices, and ``sample`` returns all of them,
    ``points = arange(n)`` (the space is the sample).  lip_map is computed
    exactly as the max of d(Tx,Ty)/d(x,y) over distinct pairs (0 for a
    single point).
    """
    dm = np.asarray(dist_matrix, dtype=float)
    check_metric_matrix(dm)
    n = dm.shape[0]
    table = np.array([int(t) for t in map_table], dtype=int)
    if len(table) != n or np.any((table < 0) | (table >= n)):
        raise ValueError("map_table must map indices {0..n-1} into themselves")

    pts = np.arange(n)
    pts.flags.writeable = False  # every sample of the system is this array

    def steps(points: np.ndarray, n: int) -> np.ndarray:
        # columns k..2k-1 are the map's k-th power, power, at columns 0..k-1
        out, power, k = np.empty((len(points), n), dtype=np.intp), table, 1
        out[:, 0] = points
        while k < n:
            out[:, k : 2 * k] = power[out[:, : min(k, n - k)]]
            power, k = power[power], 2 * k
        return out

    def pairwise(points: np.ndarray, k: int = 0) -> np.ndarray:
        idx = steps(points, k + 1)[:, k]
        return dm[np.ix_(idx, idx)]

    def closeness(points: np.ndarray, ks, eps: float) -> Iterator[tuple]:
        # one test per step k: dm < eps on the indices after k steps, or
        # None (equality) when that holds on the diagonal only; each column
        # is the map applied to the last one, so a reader that stops early
        # builds no later step
        near = dm < eps
        near = None if np.count_nonzero(near) == n else near
        col, at = np.asarray(points, dtype=np.intp), 0
        for k in ks:
            if k < at:  # steps out of order: walk again from the sample
                col, at = np.asarray(points, dtype=np.intp), 0
            for _ in range(k - at):
                col = table[col]
            at = k
            yield (k, eps), col, near

    return System(
        name=name,
        sample=lambda count, seed: pts,
        horizon=FINITE_HORIZON,
        lip_map=_max_ratio(dm[np.ix_(table, table)], dm),
        pairwise_dist=pairwise,
        steps=steps,
        closeness=closeness,
        points=pts,
    )


def metric_closure(mat: np.ndarray) -> np.ndarray:
    """Shortest-path (min-plus) closure: repairs triangle violations."""
    dm = np.asarray(mat, dtype=float).copy()
    n = dm.shape[0]
    dm = np.minimum(dm, dm.T)
    np.fill_diagonal(dm, 0.0)
    for k in range(n):
        dm = np.minimum(dm, dm[:, k : k + 1] + dm[k : k + 1, :])
    return dm


def random_finite_system(size: int, seed: int, low=0.5, high=2.0) -> System:
    """Seeded random finite metric space (closure-repaired) with a random map."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(low, high, size=(size, size))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    dm = metric_closure(raw)
    table = rng.integers(0, size, size=size)
    return make_finite_system(dm, table, name=f"finite{size}[seed={seed}]")


# ---------------------------------------------------------------------------
# shift systems
# ---------------------------------------------------------------------------


def letter_array(letters: np.ndarray) -> np.ndarray:
    """Integer lattice letters in the smallest signed int type that holds
    -(max letter + 1), so every letter difference and its absolute value
    fit it too."""
    return letters.astype(np.min_scalar_type(-int(letters.max(initial=0)) - 1), copy=False)


def lattice_words(codes, m: int, D: int) -> np.ndarray:
    """The (..., D) base-m digits of int codes, most significant first.

    An (N, L) array of letter codes c in [0, m^D) gives the (N, L, D)
    lattice letters of N words: axis t of a letter is its digit
    c // m^(D-1-t) % m.
    """
    # the smallest unsigned type holding m^D holds every code, power and m
    codes = np.asarray(codes).astype(np.min_scalar_type(m**D), copy=False)
    out = np.empty(codes.shape + (D,), dtype=np.min_scalar_type(-m))
    for t in range(D):
        out[..., t] = codes // m ** (D - 1 - t) % m
    return letter_array(out)


def _lattice_shift(name, m: int, D: int, L: int, levels: int) -> System:
    """A shift on words of L letters of D lattice indices in [0, m).

    A sample is the words' (N, L, D) lattice letters, and coordinates are
    letters / (levels - 1).
    """

    def sample(count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return lattice_words(rng.integers(0, m**D, size=(count, L)), m, D)

    def closeness(words: np.ndarray, steps, eps: float) -> Iterator[tuple]:
        # each axis tests |a - b| < t: equality at t = 1 (always, at levels 2)
        for q, t in lattice_gaps(levels, eps, steps, words.shape[1]):
            for a in range(words.shape[2]):
                col, near = words[:, q, a], None
                if t > 1:  # relate the letters present, at most min(N, m)
                    vals, col = np.unique(col, return_inverse=True)
                    near = np.abs(vals[:, None] - vals) < t
                yield (q, a, t), col, near

    return System(
        name=name,
        sample=sample,
        horizon=L,
        lip_map=2.0,
        pairwise_dist=None,
        steps=lambda words, n: words[:, :n, 0] / (levels - 1),
        closeness=closeness,
        lead_bound=(m - 1) / (levels - 1),
    )


def make_full_shift(m: int, L: int) -> System:
    """Full shift on m letters seen through words of length L.

    d(x,y) = 2^-k with k the first index of disagreement (0 if equal on
    all letters); the map drops the first letter, so horizon = L orbit
    points.
    """
    if m < 2 or L < 2:
        raise ValueError("need m >= 2 and L >= 2")
    return _lattice_shift(f"shift{m}", m, 1, L, 2)


def make_grid_shift(D: int, m: int, L: int) -> System:
    """Shift over the uniform grid alphabet in [0,1]^D.

    d(x,y) = max_k 2^-k * ||x_k - y_k||_inf; a desk-scale stand-in for
    the positive-dimension shifts the theory is aimed at.
    """
    if D < 1 or m < 2 or L < 2:
        raise ValueError("need D >= 1, m >= 2, L >= 2")
    return _lattice_shift(f"grid{D}x{m}", m, D, L, m)


def letter_gap(m: int, eps, e: int) -> int:
    """ceil(eps * 2^e * (m-1)) in integers, eps a float or Fraction > 0:
    letters a/(m-1) weighted 2^-e lie less than eps apart exactly when
    their indices differ by less than it."""
    num, den = eps.as_integer_ratio()
    return -(-(num * (m - 1) << e) // den)


def lattice_gaps(levels: int, eps, steps, L=None):
    """The (q, t) pairs of the closeness rule of lattice words.

    Words of letters a/(levels - 1) have "max over k in ``steps`` of
    d(T^k x, T^k y) < eps" exactly when every axis of each yielded position
    q differs by less than t = ``letter_gap(levels, eps, q - k)``, k the last
    step <= q (q weighs its letters 2^-(q-k)).  A gap above levels - 1
    constrains nothing: such positions are skipped, and the walk stops at
    the first after the last step (later gaps only grow) or at the word
    length L (None: unbounded).  It needs levels >= 2 and eps > 0, below
    which no gap ever exceeds levels - 1, and at least one step.
    """
    if levels < 2 or not eps > 0:
        raise ValueError(f"need m >= 2 and eps > 0, got levels m={levels} and eps={eps}")
    ks = sorted(steps)
    if not ks:
        raise ValueError("need at least one step")
    for q in icount(ks[0]) if L is None else range(ks[0], L):
        k = ks[bisect_right(ks, q) - 1]
        t = letter_gap(levels, eps, q - k)
        if t < levels:
            yield q, t
        elif k == ks[-1]:
            return


def enumerate_words(m: int, L: int, D: int = 1) -> np.ndarray:
    """Every word of L letters of D base-m digits, as (m^(L*D), L, D)
    lattice letters: all full-shift words at D = 1, all grid-shift words
    otherwise.

    Word code w in [0, m^(L*D)) has the digits of its letters in order,
    so the words come in ``itertools.product`` order over the letters.
    """
    return lattice_words(np.arange(m ** (L * D)), m, L * D).reshape(-1, L, D)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def gamma(f: Potential, eps: float) -> float:
    """Continuity modulus bound sup{|f(x)-f(y)| : d(x,y) < eps} <= lip*eps.

    An honest upper bound for Lipschitz potentials; the sandwich checks
    depend on it being an upper bound, never an estimate.
    """
    return f.lip * eps


def constant_potential(c: float, name=None) -> Potential:
    return Potential(
        lip=0.0,
        sup_norm=abs(float(c)),
        name=name or f"const({c})",
        array=lambda x: np.full(x.shape, float(c)),
    )


def zero_potential() -> Potential:
    return constant_potential(0.0, name="zero")


def first_coord_potential(system: System, scale=1.0, offset=0.0) -> Potential:
    """offset + scale * (first coordinate of the leading letter).

    The Lipschitz constant is |scale| * system.lead_bound: full-shift
    letters are integers at distance >= 1 apart while the word metric caps
    at 1, and grid letters move inside [0,1] under the sup metric.
    """
    bound = system.lead_bound
    if bound is None:
        raise ValueError("first_coord_potential targets shift/grid systems")
    return Potential(
        lip=abs(scale) * bound,
        sup_norm=abs(offset) + abs(scale) * bound,
        name=f"letter0(scale={scale},offset={offset})",
        array=lambda x: offset + scale * x,
    )


def table_potential(system: System, values, name="table") -> Potential:
    """Finite-system potential from per-index values; exact lip constant.

    Point i is the index i (``points = arange(n)``).
    """
    if system.points is None:
        raise ValueError("table_potential needs a finite system indexed by its points")
    vals = np.asarray(values, dtype=float)
    n = len(system.points)
    if vals.shape != (n,):
        raise ValueError("one value per point required")
    dm = system.pairwise_dist(system.points)
    return Potential(
        lip=_max_ratio(np.abs(vals[:, None] - vals[None, :]), dm),
        sup_norm=float(np.max(np.abs(vals))) if n else 0.0,
        name=name,
        array=lambda x: vals[x],
    )


def random_table_potential(system: System, seed: int, low=-1.0, high=1.0) -> Potential:
    rng = np.random.default_rng(seed)
    vals = rng.uniform(low, high, size=len(system.points))
    return table_potential(system, vals, name=f"table[seed={seed}]")


def scaled_potential(f: Potential, a: float) -> Potential:
    """a * f with the transported Lipschitz/sup data; at a != 0 its sums
    keep f's order, reversed when a < 0."""
    base, sign = f.order or (f, 1.0)
    return Potential(
        lip=abs(a) * f.lip,
        sup_norm=abs(a) * f.sup_norm,
        name=f"{a}*{f.name}",
        array=lambda x: a * f.array(x),
        order=(base, sign if a > 0 else -sign) if a != 0 else None,
    )


def shifted_potential(f: Potential, c: float) -> Potential:
    """f + c, whose sums keep f's order."""
    return Potential(
        lip=f.lip,
        sup_norm=f.sup_norm + abs(c),
        name=f"{f.name}+{c}",
        array=lambda x: f.array(x) + c,
        order=f.order or (f, 1.0),
    )


def sum_potentials(f: Potential, g: Potential) -> Potential:
    return Potential(
        lip=f.lip + g.lip,
        sup_norm=f.sup_norm + g.sup_norm,
        name=f"{f.name}+{g.name}",
        array=lambda x: f.array(x) + g.array(x),
    )
