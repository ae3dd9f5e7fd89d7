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
  digits of ``arange(m**(L*D))``);
* a product's, a structured array whose fields ``first`` and ``second``
  hold the factor samples row by row (``pair_samples``);
* an iterate's, its base system's.

Systems built here:

* ``make_finite_system``  -- explicit metric matrix + index map (the exact
  test substrate: every pressure quantity on it is enumerable).
* ``make_full_shift``     -- words over {0..m-1}, first-disagreement metric.
* ``make_grid_shift``     -- words over a uniform grid in [0,1]^D with the
  weighted sup metric d(x,y) = max_k 2^-k * ||x_k - y_k||_inf.
* ``make_product``        -- max metric, summed potential.
* ``make_iterate``        -- k-fold map with the k-step summed potential.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import count as icount
from typing import Callable, Optional

import numpy as np

FINITE_HORIZON = 10**9  # finite systems never truncate


class MetricError(ValueError):
    """Raised when a distance matrix fails the metric axioms."""


@dataclass(frozen=True, eq=False)
class System:
    """A computable dynamical system (X, T, d) with sampling.

    ``sample(count, seed)`` returns an array sample, one row per point
    (see the module docstring), and ``points``, when the space is finite,
    is every point as such a sample: ``arange(n)`` on a finite system,
    the i-major pairs of the factors' points on a product.
    ``horizon`` counts the valid orbit points x, Tx, ..., T^(horizon-1) x.
    ``lead_bound``, when present, bounds the first coordinate of the
    leading letter: it lies in [0, lead_bound] (m-1 for the full shift,
    1.0 for the grid shift).
    ``steps(sample, n)`` is the sample's (N, n) step data, entry [i, j]
    standing for T^j(sample[i]) as array potentials read it: a point index
    (finite), the first-axis letter over levels - 1 (shifts), a record of
    the factors' step data in fields ``first`` and ``second`` (products),
    a record of base steps jk .. jk+k-1 in a (k,) field ``steps`` (the
    k-fold iterate).  ``pairwise_dist(sample, k=0)`` is the (N, N) matrix
    of d(T^k sample[i], T^k sample[j]); a product takes the max of its
    factors', the k-fold iterate the base matrix after jk steps (the float
    reference).  ``closeness(sample, steps, eps)``, the exact rule of "max
    over k in ``steps`` of that distance < eps", is a list of tests ``(key,
    column, relation)``: column an (N,) int array over the sample, relation
    a (V, V) bool matrix over its values or None for equality.  Points i
    and j are close exactly when ``relation[column[i], column[j]]`` holds
    in every test; equal keys on one sample name equal tests.
    """

    name: str
    sample: Callable[[int, int], np.ndarray]
    horizon: int
    pairwise_dist: Callable[..., np.ndarray]
    steps: Callable[[np.ndarray, int], np.ndarray]
    closeness: Callable[..., list]
    lip_map: Optional[float] = None
    points: Optional[np.ndarray] = None  # every point, when the space is finite
    lead_bound: Optional[float] = None


@dataclass(frozen=True, eq=False)
class Potential:
    """A real observable with an honest Lipschitz constant and sup bound.

    ``lip`` must be a valid upper bound: the finite-level sandwich checks
    use gamma(eps) = lip * eps as the modulus of continuity, which is only
    sound if lip really dominates |f(x)-f(y)| / d(x,y).

    ``array(x)`` is f at every entry of an array x of its system's step
    data (``System.steps``).  Scalar potentials read the first scalar
    coordinate (``first_scalar``), product and iterate potentials the
    fields of their records.
    """

    lip: float
    sup_norm: float
    name: str
    array: Callable[[np.ndarray], np.ndarray]


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
        cols = [np.asarray(points, dtype=np.intp)]
        for _ in range(n - 1):
            cols.append(table[cols[-1]])
        return np.stack(cols, axis=1)

    def pairwise(points: np.ndarray, k: int = 0) -> np.ndarray:
        idx = steps(points, k + 1)[:, k]
        return dm[np.ix_(idx, idx)]

    def closeness(points: np.ndarray, ks, eps: float) -> list:
        # one test per step k: dm < eps on the indices after k steps, or
        # None (equality) when that holds on the diagonal only
        near, idx = dm < eps, steps(points, max(ks) + 1)
        near = None if np.count_nonzero(near) == n else near
        return [((k, eps), idx[:, k], near) for k in ks]

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

    A sample is the words' (N, L, D) lattice letters.  Coordinates are
    letters / (levels - 1), and the pairwise metric folds
    2^-s * min(1, Chebyshev distance) over positions s: on full-shift int
    letters (levels 2) that is 2^-(first disagreement), and on grid
    coordinates in [0, 1] the min changes nothing.
    """

    def sample(count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return lattice_words(rng.integers(0, m**D, size=(count, L)), m, D)

    def pairwise(words: np.ndarray, k: int = 0) -> np.ndarray:
        arr = words[:, k:] / (levels - 1)  # (N, L-k, D)
        out = np.zeros((len(arr), len(arr)))
        for s in range(arr.shape[1]):
            cheb = np.abs(arr[:, None, s, 0] - arr[None, :, s, 0])
            for t in range(1, arr.shape[2]):
                np.maximum(cheb, np.abs(arr[:, None, s, t] - arr[None, :, s, t]), out=cheb)
            np.minimum(cheb, 1.0, out=cheb)
            cheb *= 2.0 ** (-s)
            np.maximum(out, cheb, out=out)
        return out

    def closeness(words: np.ndarray, steps, eps: float) -> list:
        # position q weighs its letters 2^-(q-k) after the last step k <= q, so
        # each axis tests |a - b| < t = letter_gap(levels, eps, q - k): equality
        # at t = 1 (always, at levels 2), nothing at all above levels - 1
        ks, tests = sorted(steps), []
        for q in range(ks[0], words.shape[1]):
            k = ks[bisect_right(ks, q) - 1]
            t = letter_gap(levels, eps, q - k)
            if t < levels:
                for a in range(words.shape[2]):
                    col, near = words[:, q, a], None
                    if t > 1:  # relate the letters present, at most min(N, m)
                        vals, col = np.unique(col, return_inverse=True)
                        near = np.abs(vals[:, None] - vals) < t
                    tests.append(((q, a, t), col, near))
            elif k == ks[-1]:  # later positions only get larger gaps
                break
        return tests

    return System(
        name=name,
        sample=sample,
        horizon=L,
        lip_map=2.0,
        pairwise_dist=pairwise,
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


def grid_gap_thresholds(m: int, n: int, eps: float, L=None) -> list:
    """Integer letter gaps t_s of the (n, eps)-closeness rule of lattice words.

    Position s weighs its Chebyshev letter distance in d_n by
    2^-max(s-n+1, 0), so words of lattice letters a/(m-1) are (n, eps)-close
    exactly when |a_s - b_s| < t_s = ``letter_gap(m, eps, max(s-n+1, 0))``
    on every axis of every position s.  The gaps grow with s, and t_s > m-1
    constrains nothing, so the list stops before the first such position,
    or at the word length L (None: unbounded words).  It needs m >= 2 and
    eps > 0, below which no gap ever exceeds m - 1.
    """
    if m < 2 or not eps > 0:
        raise ValueError(f"need m >= 2 and eps > 0, got m={m}, eps={eps}")
    gaps = []
    for s in icount() if L is None else range(L):
        t = letter_gap(m, eps, max(s - n + 1, 0))
        if t > m - 1:
            break
        gaps.append(t)
    return gaps


def enumerate_words(m: int, L: int, D: int = 1) -> np.ndarray:
    """Every word of L letters of D base-m digits, as (m^(L*D), L, D)
    lattice letters: all full-shift words at D = 1, all grid-shift words
    otherwise.

    Word code w in [0, m^(L*D)) has the digits of its letters in order,
    so the words come in ``itertools.product`` order over the letters.
    """
    return lattice_words(np.arange(m ** (L * D)), m, L * D).reshape(-1, L, D)


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------


def pair_samples(a, b, cartesian: bool = False) -> np.ndarray:
    """A product sample: row r holds factor sample rows a[i] and b[j] in
    fields ``first`` and ``second``.

    (i, j) = (r, r) for r below the shorter length, or with ``cartesian``
    every pair in i-major order, row i * len(b) + j.  The fields keep the
    factor samples' dtypes and trailing shapes.
    """
    a, b = np.asarray(a), np.asarray(b)
    if cartesian:
        i, j = np.divmod(np.arange(len(a) * len(b)), len(b))
    else:
        i = j = np.arange(min(len(a), len(b)))
    out = np.empty(len(i), dtype=[("first", a.dtype, a.shape[1:]), ("second", b.dtype, b.shape[1:])])
    out["first"], out["second"] = a[i], b[j]
    return out


def _draw(s: System, count: int, seed: int) -> np.ndarray:
    """``count`` rows of a factor: seeded draws of its points, else its sample."""
    if s.points is None:
        return s.sample(count, seed)
    return s.points[np.random.default_rng(seed).integers(len(s.points), size=count)]


def make_product(s1: System, s2: System, f1: Potential, f2: Potential):
    """Product system with the max metric and the summed potential.

    A sample pairs ``count`` rows of each factor (``pair_samples``): seeded
    draws of a factor's points when it has them, else its own sample at
    ``seed`` (``seed + 1`` for the second factor).  Its step data is a
    record of the factors' step data in fields ``first`` and ``second``.
    """

    def steps(points: np.ndarray, n: int) -> np.ndarray:
        return np.rec.fromarrays(
            [s1.steps(points["first"], n), s2.steps(points["second"], n)], names="first,second"
        )

    def pairwise(points: np.ndarray, k: int = 0) -> np.ndarray:
        return np.maximum(s1.pairwise_dist(points["first"], k), s2.pairwise_dist(points["second"], k))

    def closeness(points: np.ndarray, ks, eps: float) -> list:
        # the max metric: close exactly when close in both factors
        return [((field, key), col, near) for field, s in (("first", s1), ("second", s2))
                for key, col, near in s.closeness(points[field], ks, eps)]

    lip = None
    if s1.lip_map is not None and s2.lip_map is not None:
        lip = max(s1.lip_map, s2.lip_map)

    points = None
    if s1.points is not None and s2.points is not None:
        points = pair_samples(s1.points, s2.points, cartesian=True)
        points.flags.writeable = False

    system = System(
        name=f"({s1.name})x({s2.name})",
        sample=lambda count, seed: pair_samples(_draw(s1, count, seed), _draw(s2, count, seed + 1)),
        horizon=min(s1.horizon, s2.horizon),
        lip_map=lip,
        pairwise_dist=pairwise,
        steps=steps,
        closeness=closeness,
        points=points,
    )
    potential = Potential(
        lip=f1.lip + f2.lip,
        sup_norm=f1.sup_norm + f2.sup_norm,
        name=f"{f1.name}+{f2.name}",
        array=lambda x: f1.array(x["first"]) + f2.array(x["second"]),
    )
    return system, potential


def make_iterate(s: System, f: Potential, k: int):
    """The k-fold system (same metric, map T^k) with the k-step sum of f.

    Its step j is base step jk: the metric reads the base distances after
    jk steps, and the step data views the base step data as records of one
    (k,) sub-array field ``steps``, base steps jk .. jk+k-1.  Samples and
    points are the base system's.
    """
    if k < 2:
        raise ValueError("need k >= 2")

    def steps(points: np.ndarray, n: int) -> np.ndarray:
        base = np.ascontiguousarray(s.steps(points, n * k))
        return base.view([("steps", base.dtype, (k,))])

    # an orbit of n iterate steps plus the k-1 extra map steps inside the
    # summed potential reaches base step n*k - 1, hence horizon // k
    horizon = s.horizon // k

    if s.lip_map is not None:
        lip_pot = f.lip * sum(max(s.lip_map, 1.0) ** j for j in range(k))
    else:
        lip_pot = float("inf")  # unknown map constant: no honest bound

    system = System(
        name=f"{s.name}^{k}",
        sample=s.sample,
        horizon=horizon,
        lead_bound=s.lead_bound,
        lip_map=None if s.lip_map is None else s.lip_map**k,
        pairwise_dist=lambda points, j=0: s.pairwise_dist(points, j * k),
        steps=steps,
        closeness=lambda points, js, eps: s.closeness(points, [j * k for j in js], eps),
        points=s.points,
    )
    potential = Potential(
        lip=lip_pot, sup_norm=k * f.sup_norm, name=f"sum{k}[{f.name}]",
        # a running sum over the k base steps, left to right
        array=lambda x: np.cumsum(f.array(x["steps"]), axis=-1)[..., -1],
    )
    return system, potential


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


def first_scalar(x: np.ndarray) -> np.ndarray:
    """First scalar coordinate of step data, drilling through records: a
    product's first factor, an iterate's base step jk."""
    while x.dtype.names:
        x = x[x.dtype.names[0]][(...,) + (0,) * len(x.dtype[0].shape)]
    return x


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
        array=lambda x: offset + scale * first_scalar(x),
    )


def table_potential(system: System, values, name="table") -> Potential:
    """Finite-system potential from per-index values; exact lip constant.

    Point i must be the index i, as on finite systems and their iterates
    (``points = arange(n)``): a product's points pair their factors'
    samples, which one index per point cannot read.
    """
    if system.points is None or system.points.dtype.names:
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
        array=lambda x: vals[first_scalar(x)],
    )


def random_table_potential(system: System, seed: int, low=-1.0, high=1.0) -> Potential:
    rng = np.random.default_rng(seed)
    vals = rng.uniform(low, high, size=len(system.points))
    return table_potential(system, vals, name=f"table[seed={seed}]")


def scaled_potential(f: Potential, a: float) -> Potential:
    """a * f with the transported Lipschitz/sup data."""
    return Potential(
        lip=abs(a) * f.lip,
        sup_norm=abs(a) * f.sup_norm,
        name=f"{a}*{f.name}",
        array=lambda x: a * f.array(x),
    )


def shifted_potential(f: Potential, c: float) -> Potential:
    """f + c."""
    return Potential(
        lip=f.lip,
        sup_norm=f.sup_norm + abs(c),
        name=f"{f.name}+{c}",
        array=lambda x: f.array(x) + c,
    )


def sum_potentials(f: Potential, g: Potential) -> Potential:
    return Potential(
        lip=f.lip + g.lip,
        sup_norm=f.sup_norm + g.sup_norm,
        name=f"{f.name}+{g.name}",
        array=lambda x: f.array(x) + g.array(x),
    )
