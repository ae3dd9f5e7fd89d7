from fractions import Fraction
from itertools import count, product
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_route as ref
from meandim import system_zoo as zoo
from meandim.orbit_engine import build_table
from meandim.oracle import exact_pressure
from meandim.system_zoo import (
    MetricError,
    constant_potential,
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
    assert one_point.points.tolist() == [0]
    assert one_point.steps(one_point.points, 3).tolist() == [[0, 0, 0]]
    assert one_point.pairwise_dist(one_point.points, 2).tolist() == [[0.0]]


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
    assert seeded_six.points.tolist() == list(range(6))
    assert seeded_six.sample(3, seed=0).tolist() == list(range(6))
    assert seeded_six.sample(100, seed=5).tolist() == list(range(6))


def test_finite_lip_is_exact_max_ratio(seeded_six):
    r = ref.finite(seeded_six)
    pts = r.points(seeded_six.points)
    dm = np.array([[r.dist(a, b) for b in pts] for a in pts])
    best = 0.0
    for i in range(6):
        for j in range(6):
            if i != j:
                ti = r.apply(pts[i]).code[0]
                tj = r.apply(pts[j]).code[0]
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
    r = ref.finite(system)
    pts = r.points(system.points)
    n = len(pts)
    dm = np.array([[r.dist(p, q) for q in pts] for p in pts])
    table = [r.apply(p).code[0] for p in pts]
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


def _words(*words):
    """Int-letter words as a full-shift sample of (N, L, 1) letters."""
    return np.array(words)[..., None]


def _dist(s, x, y):
    """d(x, y) of two words through the system's pairwise_dist."""
    return s.pairwise_dist(_words(x, y))[0, 1]


def test_full_shift_distance_examples():
    s = make_full_shift(2, 8)
    x = (0, 1, 1, 1, 1, 1, 1, 1)
    y = (1, 0, 0, 0, 0, 0, 0, 0)
    assert _dist(s, x, y) == 1.0  # disagree at index 0
    a = (0, 1, 0, 1, 1, 0, 1, 0)
    b = (0, 1, 0, 0, 1, 0, 1, 0)  # first disagreement at 3
    assert _dist(s, a, b) == 2.0 ** (-3)
    c = (0, 1, 0, 1, 0, 1, 0, 1)
    assert _dist(s, c, c) == 0.0


def test_full_shift_agree_first_three_letters():
    s = make_full_shift(2, 8)
    x = (1, 0, 1, 1, 0, 0, 1, 0)
    y = (1, 0, 1, 0, 0, 1, 1, 1)
    assert _dist(s, x, y) == 0.125


def test_full_shift_triangle_on_sampled_triples():
    r = ref.full_shift(3, 10)
    s = r.system
    pts = s.sample(100, seed=1)
    # pairwise path also matches the scalar metric
    pd = s.pairwise_dist(pts)
    words = r.points(pts)
    for i in range(0, 100, 7):
        for j in range(0, 100, 11):
            assert pd[i, j] == r.dist(words[i], words[j])
    rng = np.random.default_rng(2)
    for _ in range(300):
        i, j, k = rng.integers(0, len(pts), size=3)
        assert pd[i, j] <= pd[i, k] + pd[k, j] + 1e-12


def test_shift_truncation_vs_extended_words():
    # separation decisions at eps agree with longer words whenever
    # n + ceil(log2(1/eps)) <= L; values agree when truncated d_n > 0
    L, n, eps = 8, 3, 0.1  # ceil(log2(10)) = 4, 3 + 4 <= 8
    s_short = make_full_shift(2, L)
    s_long = make_full_shift(2, L + 6)
    rng = np.random.default_rng(3)
    words = rng.integers(0, 2, size=(30, L))
    tails = rng.integers(0, 2, size=(30, 6))
    short = words[..., None]
    longw = np.concatenate([words, tails], axis=1)[..., None]
    ts = build_table(s_short, short, n, [])
    tl = build_table(s_long, longw, n, [])
    ds, dl = ts.bowen_matrix(n), tl.bowen_matrix(n)
    assert np.array_equal(ds >= eps, dl >= eps)
    mask = ds > 0
    assert np.array_equal(ds[mask], dl[mask])


# ---------------------------------------------------------------- grid shift


def test_grid_binary_reduces_to_full_shift():
    # the m = 2 grid's lattice letters are the full shift's int letters
    g, s = ref.grid_shift(1, 2, 6), ref.full_shift(2, 6)
    gp = g.system.sample(40, seed=4)
    gw, sw = g.points(gp), s.points(gp)
    for i in range(40):
        for j in range(40):
            assert g.dist(gw[i], gw[j]) == s.dist(sw[i], sw[j])
    assert np.array_equal(g.system.pairwise_dist(gp), s.system.pairwise_dist(gp))


def test_grid_letter_distance_dominated_by_index_zero():
    # coordinates 0, 0.5, 1, 0.25 against 0.75, 0.5, 1, 0.25 (m = 5)
    g = make_grid_shift(1, 5, 4)
    assert _dist(g, (0, 2, 4, 1), (3, 2, 4, 1)) == 0.75


def test_grid_alphabet_separation_count():
    # D=2, m=3: all 9 letters pairwise >= 0.5 apart in the sup norm,
    # so at eps=0.4 every letter is separated from every other
    letters = ref.grid_alphabet(2, 3)
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
    r = ref.grid_shift(2, 3, 5)
    pts = r.system.sample(25, seed=2)
    pd = r.system.pairwise_dist(pts)
    words = r.points(pts)
    for i in range(25):
        for j in range(25):
            assert pd[i, j] == pytest.approx(r.dist(words[i], words[j]), abs=1e-15)


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



@pytest.mark.parametrize("m,eps", [(1, 0.5), (0, 0.5), (3, 0.0), (3, -0.25)])
def test_grid_gap_thresholds_rejects_a_rule_that_never_ends(m, eps):
    # below m = 2 or at eps <= 0 no gap ever exceeds m - 1, so the
    # unbounded list would never stop
    with pytest.raises(ValueError, match="m >= 2 and eps > 0"):
        zoo.grid_gap_thresholds(m, 1, eps)


# ---------------------------------------------------------------- product


def test_product_with_one_point_is_isometric(one_point, seeded_six):
    f1 = constant_potential(0.0)
    f2 = zoo.random_table_potential(seeded_six, seed=5)
    prod, _ = make_product(one_point, seeded_six, f1, f2)
    pts = prod.sample(10, seed=0)
    assert len(pts) == 10 and not pts["first"].any()  # ten draws of the one point
    for k in range(3):
        assert np.array_equal(prod.pairwise_dist(pts, k), seeded_six.pairwise_dist(pts["second"], k))


def test_product_metric_is_max_rule():
    s1 = make_finite_system([[0.0, 1.0], [1.0, 0.0]], [0, 1])
    s2 = make_finite_system([[0.0, 0.5], [0.5, 0.0]], [0, 1])
    prod, _ = make_product(s1, s2, constant_potential(0), constant_potential(0))
    dists = set(prod.pairwise_dist(prod.points).ravel().tolist())
    assert dists == {0.0, 0.5, 1.0}


def test_product_dominates_factors(seeded_six):
    other = random_finite_system(4, seed=9, low=0.1, high=1.0)
    f = constant_potential(0.0)
    prod, _ = make_product(seeded_six, other, f, f)
    pts = prod.points
    d = prod.pairwise_dist(pts)
    assert np.all(d >= seeded_six.pairwise_dist(pts["first"]) - 1e-15)
    assert np.all(d >= other.pairwise_dist(pts["second"]) - 1e-15)


def test_product_exact_spanning_submultiplicative_at_q1():
    s1 = random_finite_system(4, seed=11, low=0.1, high=1.0)
    s2 = random_finite_system(4, seed=12, low=0.1, high=1.0)
    f1 = zoo.random_table_potential(s1, seed=13)
    f2 = zoo.random_table_potential(s2, seed=14)
    prod, fp = make_product(s1, s2, f1, f2)
    t1 = build_table(s1, s1.points, 2, [f1])
    t2 = build_table(s2, s2.points, 2, [f2])
    tp = build_table(prod, prod.points, 2, [fp])
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
    assert build_table(cubed, cubed.points, 1).point_values(f, range(3)).tolist() == [0.0, 1.0, 2.0]


def test_table_potential_reads_index_points():
    # finite systems and their iterates hold arange points, a product the
    # i-major pairs of its factors' points
    s1, s2 = random_finite_system(2, 0), random_finite_system(3, 1)
    cubed, _ = make_iterate(s2, zoo.zero_potential(), 3)
    assert cubed.points is s2.points
    assert s2.points.dtype == np.intp and s2.points.tolist() == [0, 1, 2]
    f = table_potential(cubed, [0.5, -1.0, 2.0])
    assert f.array(cubed.steps(cubed.points, 1)).tolist() == [[0.5], [-1.0], [2.0]]
    prod, _ = make_product(s1, s2, zoo.zero_potential(), zoo.zero_potential())
    assert prod.points["first"].tolist() == [0, 0, 0, 1, 1, 1]
    assert prod.points["second"].tolist() == [0, 1, 2, 0, 1, 2]
    with pytest.raises(ValueError, match="finite system"):
        table_potential(prod, np.arange(6.0))
    # every caller reads the same points, so no caller may write them
    assert not (s2.points.flags.writeable or s2.sample(3, 0).flags.writeable or prod.points.flags.writeable)


def _factor_rows(s, count, seed):
    """A factor's rows of a product sample: ``count`` seeded draws of its
    points, or its own sample when it has none."""
    if s.points is None:
        return s.sample(count, seed)
    return s.points[np.random.default_rng(seed).integers(len(s.points), size=count)]


def test_product_sample_holds_its_factor_samples():
    # field by field, count rows of each factor bitwise (dtype and trailing
    # shape too): draws of a finite factor's points (seed, and seed + 1 for
    # the second factor), and a shift's own sample
    finite, full, grid = random_finite_system(5, seed=3), make_full_shift(3, 6), make_grid_shift(2, 5, 6)
    zero = zoo.zero_potential()
    inner, _ = make_product(finite, full, zero, zero)
    for s1, s2 in [(finite, full), (full, grid), (grid, finite), (inner, grid), (grid, inner)]:
        prod, _ = make_product(s1, s2, zero, zero)
        for count in (0, 3, 9):
            pts = prod.sample(count, seed=4)
            assert len(pts) == count
            for got, want in ((pts["first"], _factor_rows(s1, count, 4)), (pts["second"], _factor_rows(s2, count, 5))):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
    # a 6-point factor no longer caps the sample at its 6 diagonal pairs
    prod, _ = make_product(random_finite_system(6, seed=0), make_full_shift(2, 8), zero, zero)
    pts = prod.sample(1000, seed=0)
    assert len(pts) == 1000 and set(pts["first"].tolist()) == set(range(6))


def test_pair_samples_cartesian_rows_are_the_i_major_pairs():
    # row i * len(b) + j is (a[i], b[j]) for index, letter and nested
    # product samples
    zero = zoo.zero_potential()
    finite, full = random_finite_system(3, seed=1), make_full_shift(2, 4)
    inner, _ = make_product(finite, full, zero, zero)
    samples = [finite.points, full.sample(4, seed=2), make_grid_shift(2, 3, 3).sample(2, seed=3),
               inner.sample(5, seed=4)]
    for a in samples:
        for b in samples:
            pairs = zoo.pair_samples(a, b, cartesian=True)
            assert (pairs["first"].dtype, pairs["second"].dtype) == (a.dtype, b.dtype)
            assert len(pairs) == len(a) * len(b)
            for i in range(len(a)):
                for j in range(len(b)):
                    row = pairs[i * len(b) + j]
                    assert row["first"].tobytes() == a[i].tobytes()
                    assert row["second"].tobytes() == b[j].tobytes()


# ---------------------------------------------------------------- iterate


def test_iterate_constant_on_one_point(one_point):
    f = constant_potential(0.7)
    it, fk = make_iterate(one_point, f, 2)
    t = build_table(it, it.points, 1)
    assert t.point_values(fk, [0])[0] == pytest.approx(1.4, abs=1e-15)


def test_iterate_swap_two_step_sum(swap_two):
    f = table_potential(swap_two, [0.0, 1.0])
    it, fk = make_iterate(swap_two, f, 2)
    # period-2 orbit: the two-step sum is 1 from either start
    assert build_table(it, it.points, 1).point_values(fk, [0, 1]).tolist() == [1.0, 1.0]
    # T^2 is the identity: every iterate step reads the starting point
    assert it.steps(it.points, 3)["steps"][:, :, 0].tolist() == [[0, 0, 0], [1, 1, 1]]


def test_iterate_three_step_sum_on_all_prefixes():
    s = make_full_shift(2, 10)
    f = zoo.first_coord_potential(s)
    it, fk = make_iterate(s, f, 3)
    prefixes = np.array(list(product(range(2), repeat=3)))
    words = np.concatenate([prefixes, np.zeros((8, 7), dtype=int)], axis=1)[..., None]
    got = build_table(it, words, 1).point_values(fk, range(8))
    assert got.tolist() == prefixes.sum(axis=1).astype(float).tolist()


def test_iterate_apply_equals_k_single_steps():
    r = ref.full_shift(3, 9)
    it, _ = ref.iterate(r, ref.constant(0.0), 2)
    pts = r.system.sample(20, seed=6)
    for p in r.points(pts):
        assert it.apply(p) == r.apply(r.apply(p))
    for j in range(4):
        assert np.array_equal(it.system.pairwise_dist(pts, j), r.system.pairwise_dist(pts, 2 * j))


def test_first_coord_potential_on_iterates_and_grids(one_point):
    # the Lipschitz data come from the letter geometry, which iterates keep
    s = make_full_shift(3, 8)
    it, _ = make_iterate(s, constant_potential(0.0), 2)
    for system in (s, it):
        f = zoo.first_coord_potential(system, scale=-2.0, offset=0.5)
        assert (f.lip, f.sup_norm) == (4.0, 4.5)
    steps = it.steps(_words((2, 0, 1, 0, 0, 0, 0, 0)), 1)
    assert zoo.first_coord_potential(it).array(steps).tolist() == [[2.0]]
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
    r = ref.finite(s)
    for p in r.points(s.points):
        for q in r.points(s.points):
            lhs = r.dist(r.apply(p), r.apply(q))
            assert lhs <= s.lip_map * r.dist(p, q) * (1 + 1e-9) + 1e-15


# ---------------------------------------------------------------- System contract


def _contract_cases(one_point):
    """(route, sample, scalar potentials) for every System kind: finite,
    full shift (its own sample, and the same words read back from
    reference Points), grids, product, iterates and a nested product."""
    point = ref.finite(one_point)
    yield point, one_point.points, [ref.table(point, [-0.0])]
    finite = ref.finite(random_finite_system(6, seed=7, low=0.1, high=1.0))
    yield finite, np.array([3, 0, 3, 5, 1]), [ref.random_table(finite, seed=2)]
    full = ref.full_shift(3, 8)
    f = ref.first_coord_potential(full, scale=-0.7, offset=0.3)
    words = full.system.sample(15, seed=1)
    yield full, words, [f]
    yield full, ref.word_letters(full.points(words), 2), [f]
    grids = [ref.grid_shift(D, m, 6) for D, m in ((1, 7), (2, 3))]
    for grid in grids:
        yield grid, grid.system.sample(15, seed=2), [ref.first_coord_potential(grid, scale=1.5, offset=-0.2)]
    prod, fp = ref.product(full, grids[0], f, ref.first_coord_potential(grids[0], scale=-1.5))
    yield prod, prod.system.sample(12, seed=3), [fp]
    it, fk = ref.iterate(full, f, 2)
    yield it, it.system.sample(12, seed=4), [fk, ref.first_coord_potential(it, offset=1.0)]
    # a 3-cycle where (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1: the k-step sum keeps eval's order
    cycle = ref.finite(make_finite_system(np.ones((3, 3)) - np.eye(3), [1, 2, 0]))
    cubed, fc = ref.iterate(cycle, ref.table(cycle, [0.1, 0.2, 0.3]), 3)
    yield cubed, cubed.system.points, [fc, ref.table(cubed, [-1.0, 0.5, -0.0])]
    nested, fn = ref.product(cubed, prod, fc, fp)
    yield nested, nested.system.sample(12, seed=5), [fn]


def _image(r, p, k):
    for _ in range(k):
        p = r.apply(p)
    return p


def test_steps_and_pairwise_dist_are_the_scalar_route(one_point):
    # pairwise_dist(sample, k) is dist over the k-fold apply images, an
    # array form over steps(sample, n) is eval along them, bitwise, and an
    # empty sample still gets a (0, n + 1) Birkhoff table
    n = 3
    for r, sample, pots in _contract_cases(one_point):
        system, size = r.system, len(sample)
        images = [[_image(r, p, k) for k in range(n)] for p in r.points(sample)]
        for k in range(n):
            want = [[r.dist(a[k], b[k]) for b in images] for a in images]
            assert np.array_equal(system.pairwise_dist(sample, k), np.reshape(want, (size, size)))
        steps = system.steps(sample, n)
        assert steps.shape == (size, n)
        for f in pots + [ref.constant(-0.0)]:
            want = np.reshape([[f.eval(p) for p in row] for row in images], (size, n))
            got = f.potential.array(steps)
            assert np.array_equal(got, want), (system.name, f.potential.name)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            empty = build_table(system, sample[:0], n, [f.potential])
            assert empty.birkhoff(f.potential).shape == (0, n + 1)
