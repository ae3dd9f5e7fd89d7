from fractions import Fraction
from itertools import count
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandim import system_zoo as zoo
from meandim.orbit_engine import build_table
from meandim.oracle import exact_pressure
from meandim.system_zoo import (
    HorizonExceededError,
    MetricError,
    Point,
    constant_potential,
    enumerate_words,
    make_finite_system,
    make_full_shift,
    make_grid_shift,
    make_iterate,
    make_product,
    metric_closure,
    random_finite_system,
    table_potential,
)


# ---------------------------------------------------------------- finite


def test_one_point_system_conventions(one_point):
    assert one_point.lip_map == 0.0
    p = one_point.points[0]
    assert one_point.apply(p) == p
    assert one_point.dist(p, p) == 0.0


def test_swap_is_isometry(swap_two):
    assert swap_two.lip_map == 1.0


def test_nonmetric_matrix_rejected_with_triple():
    bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    with pytest.raises(MetricError, match="triple"):
        make_finite_system(bad, [0, 1, 2])


def test_asymmetry_rejected():
    with pytest.raises(MetricError):
        make_finite_system([[0.0, 1.0], [2.0, 0.0]], [0, 1])


def test_closure_repairs_and_passes_exhaustive_scan():
    rng = np.random.default_rng(7)
    raw = rng.uniform(0.1, 1.0, size=(6, 6))
    raw = (raw + raw.T) / 2
    np.fill_diagonal(raw, 0.0)
    dm = metric_closure(raw)
    # brute-force triangle check over all 6^3 triples
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert dm[i, j] <= dm[i, k] + dm[k, j] + 1e-12
    make_finite_system(dm, list(range(6)))  # accepted


def test_finite_sample_returns_all_points(seeded_six):
    assert seeded_six.sample(3, seed=0) == list(seeded_six.points)
    assert seeded_six.sample(100, seed=5) == list(seeded_six.points)


def test_finite_lip_is_exact_max_ratio(seeded_six):
    dm = np.array(
        [
            [seeded_six.dist(a, b) for b in seeded_six.points]
            for a in seeded_six.points
        ]
    )
    best = 0.0
    for i in range(6):
        for j in range(6):
            if i != j:
                ti = seeded_six.apply(seeded_six.points[i]).code[0]
                tj = seeded_six.apply(seeded_six.points[j]).code[0]
                best = max(best, dm[ti, tj] / dm[i, j])
    assert seeded_six.lip_map == pytest.approx(best, abs=0)


def _loop_metric_check(dm):
    """The triple-loop metric check, the reference of check_metric_matrix."""
    dm = np.asarray(dm, dtype=float)
    n = dm.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for i, j in pairs:
        if dm[i, j] < 0:
            raise MetricError(f"negative distance at ({i},{j})")
    for i in range(n):
        if dm[i, i] != 0:
            raise MetricError(f"nonzero diagonal at ({i},{i})")
    for i, j in pairs:
        if dm[i, j] != dm[j, i]:
            raise MetricError(f"asymmetry at ({i},{j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dm[i, j] > dm[i, k] + dm[k, j] + 1e-12:
                    raise MetricError(
                        f"triangle violation at triple ({i},{j},{k}): "
                        f"{dm[i, j]} > {dm[i, k]} + {dm[k, j]}"
                    )


def _outcome(check, dm):
    try:
        check(dm)
    except MetricError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    data=st.data(),
    fault=st.sampled_from(["none", "triangle", "asymmetry", "diagonal", "negative"]),
)
def test_metric_check_names_the_loops_first_fault(n, data, fault):
    # small symmetric matrices of sums that round (0.1 + 0.2), excesses
    # inside and outside the 1e-12 tolerance (0.5 + 0.5 against 1 + 1e-13
    # and 1 + 1e-10), zeros (pseudometrics) and planted faults
    values = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0 + 1e-13, 1.0 + 1e-10, 1.3])
    dm = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dm[i, j] = dm[j, i] = data.draw(values)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if fault == "triangle" and i != j:
        dm[i, j] = dm[j, i] = 5.0
    elif fault == "asymmetry" and i != j:
        dm[i, j] += 0.25
    elif fault == "diagonal":
        dm[i, i] = 0.5
    elif fault == "negative" and i != j:
        dm[i, j] = -0.5
    assert _outcome(zoo.check_metric_matrix, dm) == _outcome(_loop_metric_check, dm)


def _loop_lips(system, vals):
    """The pair loops of lip_map and table_potential's lip, the reference."""
    n = len(system.points)
    dm = np.array([[system.dist(p, q) for q in system.points] for p in system.points])
    table = [system.apply(p).code[0] for p in system.points]
    lip_map = lip = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if dm[i, j] > 0:
                lip_map = max(lip_map, dm[table[i], table[j]] / dm[i, j])
                lip = max(lip, abs(vals[i] - vals[j]) / dm[i, j])
    return lip_map, lip


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000), zeros=st.floats(0.0, 0.6))
def test_lipschitz_constants_equal_the_pair_loops(n, seed, zeros):
    # the closure keeps the zeros of a raw matrix with zero entries, so
    # these are pseudometrics with whole classes of points at distance 0
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 2.0, size=(n, n)) * (rng.uniform(size=(n, n)) >= zeros)
    s = make_finite_system(metric_closure(raw), rng.integers(0, n, size=n))
    vals = rng.uniform(-1.0, 1.0, size=n)
    lip_map, lip = _loop_lips(s, vals)
    assert s.lip_map.hex() == float(lip_map).hex()
    assert table_potential(s, vals).lip.hex() == float(lip).hex()


def test_one_point_lipschitz_constants_are_zero(one_point):
    assert _loop_lips(one_point, [0.7]) == (0.0, 0.0)
    assert one_point.lip_map.hex() == table_potential(one_point, [0.7]).lip.hex() == (0.0).hex()


# ---------------------------------------------------------------- full shift


def test_full_shift_distance_examples():
    s = make_full_shift(2, 8)
    x = Point((0, 1, 1, 1, 1, 1, 1, 1))
    y = Point((1, 0, 0, 0, 0, 0, 0, 0))
    assert s.dist(x, y) == 1.0  # disagree at index 0
    a = Point((0, 1, 0, 1, 1, 0, 1, 0))
    b = Point((0, 1, 0, 0, 1, 0, 1, 0))  # first disagreement at 3
    assert s.dist(a, b) == 2.0 ** (-3)
    c = Point((0, 1, 0, 1, 0, 1, 0, 1))
    assert s.dist(c, c) == 0.0


def test_full_shift_agree_first_three_letters():
    s = make_full_shift(2, 8)
    x = Point((1, 0, 1, 1, 0, 0, 1, 0))
    y = Point((1, 0, 1, 0, 0, 1, 1, 1))
    assert s.dist(x, y) == 0.125


def test_full_shift_triangle_on_sampled_triples():
    s = make_full_shift(3, 10)
    pts = s.sample(100, seed=1)
    # pairwise path also matches the scalar metric
    pd = s.pairwise_dist(pts)
    for i in range(0, 100, 7):
        for j in range(0, 100, 11):
            assert pd[i, j] == s.dist(pts[i], pts[j])
    rng = np.random.default_rng(2)
    for _ in range(300):
        i, j, k = rng.integers(0, len(pts), size=3)
        assert pd[i, j] <= pd[i, k] + pd[k, j] + 1e-12


def test_shift_apply_crosses_horizon():
    s = make_full_shift(2, 3)
    p = Point((1, 0, 1))
    q = s.apply(s.apply(p))
    with pytest.raises(HorizonExceededError):
        s.apply(q)


def test_shift_truncation_vs_extended_words():
    # separation decisions at eps agree with longer words whenever
    # n + ceil(log2(1/eps)) <= L; values agree when truncated d_n > 0
    L, n, eps = 8, 3, 0.1  # ceil(log2(10)) = 4, 3 + 4 <= 8
    s_short = make_full_shift(2, L)
    s_long = make_full_shift(2, L + 6)
    rng = np.random.default_rng(3)
    words = rng.integers(0, 2, size=(30, L))
    tails = rng.integers(0, 2, size=(30, 6))
    short = [Point(tuple(map(int, w))) for w in words]
    longw = [Point(tuple(map(int, np.concatenate([w, t])))) for w, t in zip(words, tails)]
    ts = build_table(s_short, short, n, [])
    tl = build_table(s_long, longw, n, [])
    ds, dl = ts.bowen_matrix(n), tl.bowen_matrix(n)
    assert np.array_equal(ds >= eps, dl >= eps)
    mask = ds > 0
    assert np.array_equal(ds[mask], dl[mask])


# ---------------------------------------------------------------- grid shift


def test_grid_binary_reduces_to_full_shift():
    g = make_grid_shift(1, 2, 6)
    s = make_full_shift(2, 6)
    gp = g.sample(40, seed=4)
    sp = [Point(tuple(int(l[0]) for l in p.code)) for p in gp]
    for i in range(40):
        for j in range(40):
            assert g.dist(gp[i], gp[j]) == s.dist(sp[i], sp[j])


def test_grid_letter_distance_dominated_by_index_zero():
    g = make_grid_shift(1, 5, 4)
    x = Point(((0.0,), (0.5,), (1.0,), (0.25,)))
    y = Point(((0.75,), (0.5,), (1.0,), (0.25,)))
    assert g.dist(x, y) == 0.75


def test_grid_alphabet_separation_count():
    # D=2, m=3: all 9 letters pairwise >= 0.5 apart in the sup norm,
    # so at eps=0.4 every letter is separated from every other
    letters = zoo.grid_alphabet(2, 3)
    assert len(letters) == 9
    count = 0
    for a in letters:
        ok = True
        for b in letters:
            if a != b and max(abs(a[0] - b[0]), abs(a[1] - b[1])) < 0.4:
                ok = False
        count += ok
    assert count == 9


def test_grid_pairwise_matches_scalar():
    g = make_grid_shift(2, 3, 5)
    pts = g.sample(25, seed=2)
    pd = g.pairwise_dist(pts)
    for i in range(25):
        for j in range(25):
            assert pd[i, j] == pytest.approx(g.dist(pts[i], pts[j]), abs=1e-15)


def _ceiling_gaps(m, n, eps, L):
    """The grid gap rule read off its definition, in Fraction arithmetic."""
    e, gaps = Fraction(eps), []
    for s in count() if L is None else range(L):
        t = math.ceil(e * 2 ** max(s - n + 1, 0) * (m - 1))
        if t > m - 1:
            break
        gaps.append(t)
    return gaps


GAP_EPS = st.one_of(
    st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
    st.integers(1, 20).map(lambda k: 2.0**-k),
    st.fractions(min_value=Fraction(1, 10**6), max_value=1).filter(lambda e: e < 1),
)


@settings(max_examples=300, deadline=None)
@given(
    m=st.one_of(st.just(2), st.integers(3, 300)),
    n=st.integers(1, 12),
    eps=GAP_EPS,
    L=st.one_of(st.none(), st.integers(1, 30)),
)
def test_grid_gap_thresholds_are_the_exact_ceiling(m, n, eps, L):
    gaps = zoo.grid_gap_thresholds(m, n, eps, L)
    assert gaps == _ceiling_gaps(m, n, eps, L)
    if m == 2:
        # the full shift's rule: equal first min(n+K, L) letters, with K
        # the largest j such that 2^-j >= eps
        K = max(j for j in range(64) if Fraction(1, 2**j) >= eps)
        assert gaps == [1] * (n + K if L is None else min(n + K, L))


# ---------------------------------------------------------------- product


def test_product_with_one_point_is_isometric(one_point, seeded_six):
    f1 = constant_potential(0.0)
    f2 = zoo.random_table_potential(seeded_six, seed=5)
    prod, _ = make_product(one_point, seeded_six, f1, f2)
    pts = prod.sample(10, seed=0)
    for i in range(len(pts)):
        for j in range(len(pts)):
            assert prod.dist(pts[i], pts[j]) == seeded_six.dist(
                Point(pts[i].code[1]), Point(pts[j].code[1])
            )


def test_product_metric_is_max_rule():
    s1 = make_finite_system([[0.0, 1.0], [1.0, 0.0]], [0, 1])
    s2 = make_finite_system([[0.0, 0.5], [0.5, 0.0]], [0, 1])
    prod, _ = make_product(s1, s2, constant_potential(0), constant_potential(0))
    dists = {
        prod.dist(a, b) for a in prod.points for b in prod.points
    }
    assert dists == {0.0, 0.5, 1.0}


def test_product_dominates_factors(seeded_six):
    other = random_finite_system(4, seed=9, low=0.1, high=1.0)
    f = constant_potential(0.0)
    prod, _ = make_product(seeded_six, other, f, f)
    for p in prod.points:
        for q in prod.points:
            d = prod.dist(p, q)
            assert d >= seeded_six.dist(Point(p.code[0]), Point(q.code[0])) - 1e-15
            assert d >= other.dist(Point(p.code[1]), Point(q.code[1])) - 1e-15


def test_product_exact_spanning_submultiplicative_at_q1():
    s1 = random_finite_system(4, seed=11, low=0.1, high=1.0)
    s2 = random_finite_system(4, seed=12, low=0.1, high=1.0)
    f1 = zoo.random_table_potential(s1, seed=13)
    f2 = zoo.random_table_potential(s2, seed=14)
    prod, fp = make_product(s1, s2, f1, f2)
    t1 = build_table(s1, list(s1.points), 2, [f1])
    t2 = build_table(s2, list(s2.points), 2, [f2])
    tp = build_table(prod, list(prod.points), 2, [fp])
    eps = 0.3
    q1 = exact_pressure(t1, f1, 1, eps).exact_log_q
    q2 = exact_pressure(t2, f2, 1, eps).exact_log_q
    qp = exact_pressure(tp, fp, 1, eps).exact_log_q
    assert qp <= q1 + q2 + 1e-9


def test_table_potential_rejects_a_product():
    s1, s2 = random_finite_system(2, 0), random_finite_system(3, 1)
    prod, _ = make_product(s1, s2, zoo.zero_potential(), zoo.zero_potential())
    with pytest.raises(ValueError, match="finite system"):
        table_potential(prod, np.arange(6.0))
    # an iterate keeps its base's indexed points
    cubed, _ = make_iterate(s2, zoo.zero_potential(), 3)
    f = table_potential(cubed, [0.0, 1.0, 2.0])
    assert [f.eval(p) for p in cubed.points] == [0.0, 1.0, 2.0]


# ---------------------------------------------------------------- iterate


def test_iterate_constant_on_one_point(one_point):
    f = constant_potential(0.7)
    it, fk = make_iterate(one_point, f, 2)
    assert fk.eval(one_point.points[0]) == pytest.approx(1.4, abs=1e-15)


def test_iterate_swap_two_step_sum(swap_two):
    f = table_potential(swap_two, [0.0, 1.0])
    it, fk = make_iterate(swap_two, f, 2)
    # period-2 orbit: the two-step sum is 1 from either start
    assert fk.eval(swap_two.points[0]) == 1.0
    assert fk.eval(swap_two.points[1]) == 1.0
    # T^2 is the identity
    for p in swap_two.points:
        assert it.apply(p) == p


def test_iterate_three_step_sum_on_all_prefixes():
    s = make_full_shift(2, 10)
    f = zoo.first_coord_potential(s)
    it, fk = make_iterate(s, f, 3)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                w = Point((a, b, c, 0, 0, 0, 0, 0, 0, 0))
                assert fk.eval(w) == float(a + b + c)


def test_iterate_apply_equals_k_single_steps():
    s = make_full_shift(3, 9)
    f = constant_potential(0.0)
    it, _ = make_iterate(s, f, 2)
    for p in s.sample(20, seed=6):
        assert it.apply(p) == s.apply(s.apply(p))


def test_first_coord_potential_on_iterates_and_grids(one_point):
    # the Lipschitz data come from the letter geometry, which iterates keep
    s = make_full_shift(3, 8)
    it, _ = make_iterate(s, constant_potential(0.0), 2)
    for system in (s, it):
        f = zoo.first_coord_potential(system, scale=-2.0, offset=0.5)
        assert (f.lip, f.sup_norm) == (4.0, 4.5)
    assert zoo.first_coord_potential(it).eval(Point((2, 0, 1, 0))) == 2.0
    g = zoo.first_coord_potential(make_grid_shift(2, 5, 4), scale=3.0, offset=-1.0)
    assert (g.lip, g.sup_norm) == (3.0, 4.0)
    with pytest.raises(ValueError, match="shift/grid"):
        zoo.first_coord_potential(one_point)


def test_iterate_horizon_bookkeeping():
    s = make_full_shift(2, 12)
    _, _ = make_iterate(s, constant_potential(0.0), 2)
    it, fk = make_iterate(s, constant_potential(0.0), 2)
    assert it.horizon == 6
    # n_max at the horizon edge still evaluates without crossing L
    t = build_table(it, it.sample(5, seed=0), it.horizon - 1, [fk])
    assert t.birkhoff(fk).shape == (5, it.horizon)


# ---------------------------------------------------------------- metric axioms (property)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_metric_axioms_on_sampled_sets(seed):
    s = make_full_shift(2, 8)
    pts = s.sample(12, seed=seed)
    pd = s.pairwise_dist(pts)
    assert np.array_equal(pd, pd.T)
    assert np.all(np.diag(pd) == 0.0)
    n = len(pts)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert pd[i, j] <= pd[i, k] + pd[k, j] + 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_finite_map_lipschitz_bound_holds(seed):
    s = random_finite_system(5, seed=seed, low=0.1, high=1.0)
    for p in s.points:
        for q in s.points:
            lhs = s.dist(s.apply(p), s.apply(q))
            assert lhs <= s.lip_map * s.dist(p, q) * (1 + 1e-9) + 1e-15


# ---------------------------------------------------------------- System contract


def _contract_cases(one_point):
    """(system, sample, potentials) for every System kind: finite, full
    shift (Words and the same words as Points), grids, product, iterates
    and a nested product."""
    finite = random_finite_system(6, seed=7, low=0.1, high=1.0)
    yield one_point, list(one_point.points), [table_potential(one_point, [-0.0])]
    yield finite, [finite.points[i] for i in (3, 0, 3, 5, 1)], [
        zoo.random_table_potential(finite, seed=2)
    ]
    full = make_full_shift(3, 8)
    f = zoo.first_coord_potential(full, scale=-0.7, offset=0.3)
    yield full, full.sample(15, seed=1), [f]
    yield full, list(full.sample(15, seed=1)), [f]
    grids = [make_grid_shift(D, m, 6) for D, m in ((1, 7), (2, 3))]
    for grid in grids:
        yield grid, grid.sample(15, seed=2), [zoo.first_coord_potential(grid, scale=1.5, offset=-0.2)]
    prod, fp = make_product(full, grids[0], f, zoo.first_coord_potential(grids[0], scale=-1.5))
    yield prod, prod.sample(12, seed=3), [fp]
    it, fk = make_iterate(full, f, 2)
    yield it, it.sample(12, seed=4), [fk, zoo.first_coord_potential(it, offset=1.0)]
    # a 3-cycle where (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1: the k-step sum keeps eval's order
    cycle = make_finite_system(np.ones((3, 3)) - np.eye(3), [1, 2, 0])
    cubed, fc = make_iterate(cycle, table_potential(cycle, [0.1, 0.2, 0.3]), 3)
    yield cubed, list(cubed.points), [fc, table_potential(cubed, [-1.0, 0.5, -0.0])]
    nested, fn = make_product(cubed, prod, fc, fp)
    yield nested, nested.sample(12, seed=5), [fn]


def _image(system, p, k):
    for _ in range(k):
        p = system.apply(p)
    return p


def test_steps_and_pairwise_dist_are_the_scalar_route(one_point):
    # pairwise_dist(sample, k) is dist over the k-fold apply images, an
    # array form over steps(sample, n) is eval along them, bitwise, and an
    # empty sample still gets a (0, n + 1) Birkhoff table
    n = 3
    for system, sample, pots in _contract_cases(one_point):
        size = len(sample)
        images = [[_image(system, p, k) for k in range(n)] for p in sample]
        for k in range(n):
            want = [[system.dist(a[k], b[k]) for b in images] for a in images]
            assert np.array_equal(system.pairwise_dist(sample, k), np.reshape(want, (size, size)))
        steps = system.steps(sample, n)
        assert steps.shape == (size, n)
        for f in pots + [constant_potential(-0.0)]:
            want = np.reshape([[f.eval(p) for p in row] for row in images], (size, n))
            got = f.array(steps)
            assert np.array_equal(got, want), (system.name, f.name)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert build_table(system, [], n, [f]).birkhoff(f).shape == (0, n + 1)
