"""The scalar route: the reference definitions of every system kind.

meandim reads a system only through array calls on a sample,
``System.steps`` and ``System.closeness``, and a potential through
``Potential.array``.  This module keeps what those must equal, one point
or one pair at a time:

* ``Point``, a nested tuple of coordinates;
* ``Route``, a system with its map ``apply``, its float metric ``dist``,
  its exact d over a set of steps ``dn``, the ``Point`` of each sample row
  and, on a shift, the lattice letters of word ``Point``s;
* ``Scalar``, a potential with its ``eval``.

The lattice reference is ``lattice_dn``: the exact d over a set of steps
of lattice words, in integers.  ``lattice_close`` compares it with an eps,
and ``assert_dn`` holds a table's closeness rule to an exact d_n, pair by
pair.

The constructors mirror ``system_zoo``'s, and build the system or
potential under test next to its reference.

The composed systems live here, not in ``meandim``: the max-metric
product (``make_product``, sampled by ``pair_samples``) and the k-fold
iterate (``make_iterate``), each with its summed potential.  Their step
data are records, a product's in fields ``first`` and ``second`` and an
iterate's in one (k,) field ``steps``; ``reads_records`` lets a scalar
potential read them at their first scalar coordinate.  The brute-force
full-shift sup ``enumerate_shift_pressure``, which certifies
``oracle.lattice_log_pressure``, lives here too.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as iproduct
import math
from typing import Callable, Optional

import numpy as np

from meandim import system_zoo as zoo
from meandim.numerics import logsumexp
from meandim.oracle import _check_dyadic_bracket


@dataclass(frozen=True)
class Point:
    """A phase-space point: a (possibly nested) tuple of coordinates.

    Finite systems use ``(index,)``; shifts a tuple of letters (an int on
    the full shift, a D-tuple of coordinates a/(m-1) on a grid); products
    pair the two factor codes.
    """

    code: tuple


@dataclass(frozen=True, eq=False)
class Route:
    """A system with its scalar map and metric, its exact d over steps,
    the Point of a sample row and, on a shift, the (N, L, D) lattice
    letters of N word Points.

    ``dn(sample, steps)`` is the (N, N) object array of the exact max over
    k in ``steps`` of d(T^k sample[i], T^k sample[j]), as Fractions.
    """

    system: zoo.System
    apply: Callable[[Point], Point]
    dist: Callable[[Point, Point], float]
    point: Callable[[np.ndarray], Point]
    dn: Callable[[np.ndarray, list], np.ndarray]
    letters: Optional[Callable[[list], np.ndarray]] = None

    def points(self, sample) -> list:
        return [self.point(row) for row in sample]


@dataclass(frozen=True, eq=False)
class Scalar:
    """A potential with its scalar eval."""

    potential: zoo.Potential
    eval: Callable[[Point], float]


# -- systems ------------------------------------------------------------------


def finite(system: zoo.System) -> Route:
    """A finite system's route, read off its metric matrix and map table
    at its points (the definition of a finite system)."""
    dm = system.pairwise_dist(system.points)
    table = system.steps(system.points, 2)[:, 1]

    def dn(points, steps):
        idx = system.steps(points, max(steps) + 1)
        return _fractions(np.max([dm[np.ix_(idx[:, k], idx[:, k])] for k in steps], axis=0))

    return Route(
        system,
        apply=lambda p: Point((int(table[p.code[0]]),)),
        dist=lambda p, q: float(dm[p.code[0], q.code[0]]),
        point=lambda i: Point((int(i),)),
        dn=dn,
    )


def _shift_apply(p: Point) -> Point:
    return Point(p.code[1:])


def full_shift(m: int, L: int) -> Route:
    """Words of int letters, d = 2^-(first disagreement)."""

    def dist(p: Point, q: Point) -> float:
        la, lb = p.code, q.code
        for k in range(min(len(la), len(lb))):
            if la[k] != lb[k]:
                return 2.0 ** (-k)
        return 0.0

    point = lambda letters: Point(tuple(letters[:, 0].tolist()))
    return Route(zoo.make_full_shift(m, L), _shift_apply, dist, point, _lattice_route_dn(2),
                 lambda w: word_letters(w, 2))


def grid_shift(D: int, m: int, L: int) -> Route:
    """Words of D-tuples a/(m-1), d = max_k 2^-k * ||x_k - y_k||_inf."""

    def dist(p: Point, q: Point) -> float:
        best = 0.0
        for k in range(min(len(p.code), len(q.code))):
            a, b = p.code[k], q.code[k]
            cheb = max(abs(a[t] - b[t]) for t in range(D))
            best = max(best, 2.0 ** (-k) * cheb)
        return best

    point = lambda letters: Point(tuple(map(tuple, (letters / (m - 1)).tolist())))
    return Route(zoo.make_grid_shift(D, m, L), _shift_apply, dist, point, _lattice_route_dn(m),
                 lambda w: word_letters(w, m))


def grid_alphabet(D: int, m: int) -> list:
    """Uniform grid {0, 1/(m-1), ..., 1}^D as letter tuples."""
    axis = [i / (m - 1) for i in range(m)]
    return [tuple(combo) for combo in iproduct(axis, repeat=D)]


def lattice_dn(words, levels: int, steps) -> np.ndarray:
    """The exact d over ``steps`` of lattice words, in integers.

    Entry [i, j] of the (N, N) int64 array is (levels - 1) * 2^L times the
    max over k in ``steps`` of d(T^k x_i, T^k x_j), for N words of L letters
    a/(levels - 1) (levels 2 on the full shift, m on a grid): the max over
    positions q and axes of min(|x_q - y_q|, levels - 1) * 2^(L - q + k),
    k the last step <= q (a position before every step weighs 0).  The min
    is the metric's min(1, .), which only the full shift's letters reach.
    """
    L = words.shape[1]
    last = [max([k for k in steps if k <= q], default=None) for q in range(L)]
    scale = np.array([0 if k is None else 2 ** (L - q + k) for q, k in enumerate(last)], dtype=np.int64)
    w = np.asarray(words, dtype=np.int64)
    gaps = np.minimum(np.abs(w[:, None] - w[None, :]).max(axis=3), levels - 1)
    return (gaps * scale).max(axis=2, initial=0)


def lattice_close(words, levels: int, steps, eps) -> np.ndarray:
    """The (N, N) bool array of "d over ``steps`` < eps" of lattice words,
    exactly: ``lattice_dn`` below ceil(eps * (levels - 1) * 2^L), eps a
    float or a Fraction."""
    return lattice_dn(words, levels, steps) < math.ceil(Fraction(eps) * (levels - 1) * 2 ** words.shape[1])


def _fractions(values) -> np.ndarray:
    """An array of exact rationals (ints, floats) as an object array of Fractions."""
    return np.vectorize(Fraction, otypes=[object])(values)


def _lattice_route_dn(levels: int):
    """A shift route's ``dn``: ``lattice_dn`` over its unit (levels - 1) * 2^L."""
    return lambda words, steps: _fractions(lattice_dn(words, levels, steps)) / ((levels - 1) << words.shape[1])


def word_letters(words, levels: int) -> np.ndarray:
    """Word Points as (N, L, D) lattice letters, read off their
    coordinates a/(levels-1) in ``letter_array``'s int type (levels 2 on
    the full shift, whose coordinates are its int letters)."""
    coords = [np.reshape(p.code, (len(p.code), -1)) for p in words]
    return zoo.letter_array(np.rint(np.array(coords) * (levels - 1)))


# -- composed systems ---------------------------------------------------------


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


def _draw(s: zoo.System, count: int, seed: int) -> np.ndarray:
    """``count`` rows of a factor: seeded draws of its points, else its sample."""
    if s.points is None:
        return s.sample(count, seed)
    return s.points[np.random.default_rng(seed).integers(len(s.points), size=count)]


def make_product(s1: zoo.System, s2: zoo.System, f1: zoo.Potential, f2: zoo.Potential):
    """Product system with the max metric and the summed potential.

    A sample pairs ``count`` rows of each factor (``pair_samples``): seeded
    draws of a factor's points when it has them, else its own sample at
    ``seed`` (``seed + 1`` for the second factor); its points, when both
    factors have them, are their i-major pairs.  Its step data is a record
    of the factors' step data in fields ``first`` and ``second``, and its
    map's Lipschitz constant is the factors' max.
    """

    def steps(points: np.ndarray, n: int) -> np.ndarray:
        return np.rec.fromarrays(
            [s1.steps(points["first"], n), s2.steps(points["second"], n)], names="first,second"
        )

    def closeness(points: np.ndarray, ks, eps: float):
        # the max metric: close exactly when close in both factors
        return (((field, key), col, near) for field, s in (("first", s1), ("second", s2))
                for key, col, near in s.closeness(points[field], ks, eps))

    points = None
    if s1.points is not None and s2.points is not None:
        points = pair_samples(s1.points, s2.points, cartesian=True)
        points.flags.writeable = False

    system = zoo.System(
        name=f"({s1.name})x({s2.name})",
        sample=lambda count, seed: pair_samples(_draw(s1, count, seed), _draw(s2, count, seed + 1)),
        horizon=min(s1.horizon, s2.horizon),
        lip_map=max(s1.lip_map, s2.lip_map),
        pairwise_dist=None,
        steps=steps,
        closeness=closeness,
        points=points,
    )
    potential = zoo.Potential(
        lip=f1.lip + f2.lip,
        sup_norm=f1.sup_norm + f2.sup_norm,
        name=f"{f1.name}+{f2.name}",
        array=lambda x: f1.array(x["first"]) + f2.array(x["second"]),
    )
    return system, potential


def make_iterate(s: zoo.System, f: zoo.Potential, k: int):
    """The k-fold system (same metric, map T^k) with the k-step sum of f.

    Its step j is base step jk: closeness reads the base rule at steps jk
    (and a finite base's matrix after jk steps), and the step data views
    the base step data as records of one (k,) sub-array field ``steps``,
    base steps jk .. jk+k-1.  Samples, points and ``lead_bound`` are the
    base system's, and its map's Lipschitz constant is the base's to the
    k-th power.
    """
    if k < 2:
        raise ValueError("need k >= 2")

    def steps(points: np.ndarray, n: int) -> np.ndarray:
        base = np.ascontiguousarray(s.steps(points, n * k))
        return base.view([("steps", base.dtype, (k,))])

    # an orbit of n iterate steps plus the k-1 extra map steps inside the
    # summed potential reaches base step n*k - 1, hence horizon // k
    horizon = s.horizon // k

    system = zoo.System(
        name=f"{s.name}^{k}",
        sample=s.sample,
        horizon=horizon,
        lead_bound=s.lead_bound,
        lip_map=s.lip_map**k,
        pairwise_dist=None if s.pairwise_dist is None else lambda points, j=0: s.pairwise_dist(points, j * k),
        steps=steps,
        closeness=lambda points, js, eps: s.closeness(points, [j * k for j in js], eps),
        points=s.points,
    )
    potential = zoo.Potential(
        lip=f.lip * sum(max(s.lip_map, 1.0) ** j for j in range(k)),
        sup_norm=k * f.sup_norm, name=f"sum{k}[{f.name}]",
        # a running sum over the k base steps, left to right
        array=lambda x: np.cumsum(f.array(x["steps"]), axis=-1)[..., -1],
    )
    return system, potential


def reads_records(f: zoo.Potential) -> zoo.Potential:
    """f reading step data at its first scalar coordinate, drilling through
    records: a product's first factor, an iterate's base step jk.  Plain
    step data reach f as they are."""

    def array(x: np.ndarray) -> np.ndarray:
        while x.dtype.names:
            x = x[x.dtype.names[0]][(...,) + (0,) * len(x.dtype[0].shape)]
        return f.array(x)

    return replace(f, array=array)


def product(r1: Route, r2: Route, f1: "Scalar", f2: "Scalar"):
    """The product route (max metric) and its summed potential."""
    system, potential = make_product(r1.system, r2.system, f1.potential, f2.potential)

    def apply(p: Point) -> Point:
        a = r1.apply(Point(p.code[0]))
        b = r2.apply(Point(p.code[1]))
        return Point((a.code, b.code))

    def dist(p: Point, q: Point) -> float:
        return max(
            r1.dist(Point(p.code[0]), Point(q.code[0])),
            r2.dist(Point(p.code[1]), Point(q.code[1])),
        )

    def point(row) -> Point:
        return Point((r1.point(row["first"]).code, r2.point(row["second"]).code))

    def ev(p: Point) -> float:
        return f1.eval(Point(p.code[0])) + f2.eval(Point(p.code[1]))

    def dn(points, steps):
        return np.maximum(r1.dn(points["first"], steps), r2.dn(points["second"], steps))

    return Route(system, apply, dist, point, dn), Scalar(potential, ev)


def iterate(r: Route, f: "Scalar", k: int):
    """The k-fold route and the k-step sum of f, summed left to right."""
    system, potential = make_iterate(r.system, f.potential, k)

    def apply(p: Point) -> Point:
        for _ in range(k):
            p = r.apply(p)
        return p

    def ev(p: Point) -> float:
        total = f.eval(p)
        for _ in range(k - 1):
            p = r.apply(p)
            total += f.eval(p)
        return total

    dn = lambda points, steps: r.dn(points, [j * k for j in steps])
    return Route(system, apply, r.dist, r.point, dn), Scalar(potential, ev)


def orbit(r: Route, t, i: int, j: int) -> Point:
    """T^j(points[i]) of the table t: j scalar ``apply`` steps."""
    p = r.point(t.points[i])
    for _ in range(j):
        p = r.apply(p)
    return p


def bowen_dist(r: Route, t, i: int, j: int, n: int) -> float:
    """d_n(points[i], points[j]) of the table t: the max of the step
    distances over 0 <= k < n, folded one pair at a time."""
    best = 0.0
    for k in t._step_range(n):
        best = max(best, r.dist(orbit(r, t, i, k), orbit(r, t, j, k)))
    return best


def _below(d) -> float:
    """The largest double <= d, an exact rational (int, float or Fraction)."""
    e = float(d)
    return e if Fraction(e) <= d else math.nextafter(e, -math.inf)


def assert_dn(t, n, dn):
    """The table's closeness rule puts every pair (i, j) at d_n = dn[i][j],
    an exact rational: the pair is separated at eps = ``_below(d_n)`` (when
    positive) and close at the next double above it."""
    for i in range(t.size):
        for j in range(i + 1, t.size):
            e = _below(dn[i][j])
            assert e == 0 or t.is_separated([i, j], n, e), (i, j, dn[i][j])
            assert not t.is_separated([i, j], n, math.nextafter(e, math.inf)), (i, j, dn[i][j])


# -- potentials ---------------------------------------------------------------


def first_coord(p: Point) -> float:
    """First scalar coordinate of a point (drill through nesting)."""
    c = p.code[0]
    while isinstance(c, tuple):
        c = c[0]
    return float(c)


def constant(c: float) -> Scalar:
    return Scalar(zoo.constant_potential(c), lambda p: float(c))


def first_coord_potential(r: Route, scale=1.0, offset=0.0) -> Scalar:
    return Scalar(
        reads_records(zoo.first_coord_potential(r.system, scale=scale, offset=offset)),
        lambda p: offset + scale * first_coord(p),
    )


def table(r: Route, values, name="table") -> Scalar:
    vals = np.asarray(values, dtype=float)
    return Scalar(reads_records(zoo.table_potential(r.system, values, name)), lambda p: float(vals[p.code[0]]))


def random_table(r: Route, seed: int, low=-1.0, high=1.0) -> Scalar:
    """``random_table_potential``, its values redrawn for the reference."""
    vals = np.random.default_rng(seed).uniform(low, high, size=len(r.system.points))
    f = zoo.random_table_potential(r.system, seed, low, high)
    return Scalar(f, lambda p: float(vals[p.code[0]]))


def scaled(f: Scalar, a: float) -> Scalar:
    return Scalar(zoo.scaled_potential(f.potential, a), lambda p: a * f.eval(p))


def shifted(f: Scalar, c: float) -> Scalar:
    return Scalar(zoo.shifted_potential(f.potential, c), lambda p: f.eval(p) + c)


def summed(f: Scalar, g: Scalar) -> Scalar:
    return Scalar(zoo.sum_potentials(f.potential, g.potential), lambda p: f.eval(p) + g.eval(p))


def gap(m_hat: float, f: Scalar) -> Scalar:
    return Scalar(zoo.shifted_potential(zoo.scaled_potential(f.potential, -1.0), m_hat),
                  lambda p: m_hat - f.eval(p))


# -- brute-force oracle -------------------------------------------------------


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
