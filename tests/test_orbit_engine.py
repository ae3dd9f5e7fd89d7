import dataclasses
from itertools import product
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_route as ref
from meandim import system_zoo as zoo
from meandim.mmdim import estimate_mmdim, net_size
from meandim.oracle import exact_pressure, lattice_log_pressure
from meandim.orbit_engine import OrbitTable, build_table
from meandim.pressure import greedy_separated, greedy_witness
from meandim.system_zoo import constant_potential, make_full_shift, table_potential
from scalar_route import Point, bowen_dist, orbit


def _refined_ids(tests) -> np.ndarray:
    """The class ids of equality tests, refined from scratch, no cache."""
    tests = list(tests)
    ids = np.zeros(len(tests[0][1]), dtype=np.int64)
    for _, col, _ in tests:
        ids = np.unique(ids * (int(col.max(initial=0)) + 1) + col, return_inverse=True)[1]
    return ids


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(1, 30), st.integers(0, 99), st.data())
def test_cached_class_ids_are_the_refinement_from_scratch(m, count, seed, data):
    # repeated words keep some classes whole; queries in any order, each
    # reusing the cached prefixes, read the ids of a refinement from scratch
    s = make_full_shift(m, 12)
    base = s.sample(4, seed)
    words = base[np.random.default_rng(seed).integers(0, 4, count)]
    t = build_table(s, words, 10)
    queries = data.draw(st.lists(st.tuples(st.integers(1, 10), st.sampled_from([0.5, 0.3, 0.125])),
                                 min_size=1, max_size=8))
    for n, eps in queries:
        ids = t._closeness(n, eps)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, _refined_ids(s.closeness(words, range(n), eps)))


def test_class_cache_holds_one_entry_per_eps_and_test():
    # 40 copies of two words on a long orbit: the classes never split to
    # points, so each query refines along all its tests; every entry is
    # keyed by its parent's entry and one test key, so the cache grows by
    # one entry per (eps, test) pair, not by one key tuple per prefix
    n, eps_list = 1500, [0.5, 0.25, 0.125]
    s = make_full_shift(2, n + 1)
    words = s.sample(2, seed=1)[[0, 1] * 20]
    t = build_table(s, words, n)
    pairs = set()
    tracemalloc.start()
    try:
        for eps in eps_list:
            for k in (1, 2, n):
                t.greedy_net(range(len(words)), k, eps)
                pairs |= {(eps, key) for key, _, _ in s.closeness(words, range(k), eps)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(t._classes) <= len(pairs)
    entries = {0} | {entry for entry, _ in t._classes.values()}
    assert all(parent in entries for parent, _ in t._classes)
    assert peak < 2**22


def _counting(s):
    """``s`` whose closeness yields the system's tests and appends each key
    it hands out to the list returned beside it."""
    read = []

    def closeness(*args):
        for test in s.closeness(*args):
            read.append(test[0])
            yield test

    return dataclasses.replace(s, closeness=closeness), read


def test_closeness_is_read_once_and_stops_at_discrete_classes(one_point):
    # all distances are >= 0.5, so at eps 0.3 every test is an equality,
    # and step 0 already puts the six points in six classes
    s, read = _counting(zoo.random_finite_system(6, seed=0, low=0.5, high=1.0))
    t = build_table(s, s.points, 1000)
    assert t.greedy_net(range(6), 1000, 0.3).tolist() == list(range(6))
    assert 0 < len(read) <= 2
    s, read = _counting(one_point)
    assert build_table(s, s.points, 2**16).greedy_net([0], 2**16, 0.5).tolist() == [0]
    assert len(read) <= 1
    # one point is one class: a query reads one test, and builds no step
    # data to hand it out (769 KB before the finite closeness walked its map)
    t = build_table(one_point, one_point.points, 2**16)
    tracemalloc.start()
    try:
        assert t.spans([0], 2**16, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_one_point_table(one_point):
    f = constant_potential(0.3)
    t = build_table(one_point, one_point.points, 5, [f])
    assert t._step_data().tolist() == [[0] * 5]
    for n in range(6):
        assert t.birkhoff(f)[0, n] == pytest.approx(n * 0.3, abs=1e-14)


def test_swap_birkhoff_alternation(swap_two):
    f = table_potential(swap_two, [0.0, 1.0])
    t = build_table(swap_two, swap_two.points, 4, [f])
    assert list(t.birkhoff(f)[0]) == [0.0, 0.0, 1.0, 1.0, 2.0]
    assert list(t.birkhoff(f)[1]) == [0.0, 1.0, 1.0, 2.0, 2.0]


def test_full_shift_orbits_are_shifts():
    r = ref.full_shift(2, 12)
    t = build_table(r.system, r.system.sample(50, seed=0), 6, [])
    words = r.points(t.points)
    for i in range(50):
        for j in range(6):
            assert orbit(r, t, i, j).code == words[i].code[j:]
            assert t._step_data()[i, j] == words[i].code[j]


def test_bowen_dist_n1_is_base_metric(seeded_six):
    r = ref.finite(seeded_six)
    t = build_table(seeded_six, seeded_six.points, 3, [])
    pts = r.points(seeded_six.points)
    for i in range(6):
        for j in range(6):
            assert bowen_dist(r, t, i, j, 1) == r.dist(pts[i], pts[j])


def test_identity_map_keeps_bowen_constant():
    s = zoo.make_finite_system(
        [[0.0, 0.4, 0.7], [0.4, 0.0, 0.5], [0.7, 0.5, 0.0]], [0, 1, 2]
    )
    r = ref.finite(s)
    t = build_table(s, s.points, 4, [])
    pts = r.points(s.points)
    for n in range(1, 5):
        for i in range(3):
            for j in range(3):
                assert bowen_dist(r, t, i, j, n) == r.dist(pts[i], pts[j])
                assert t.bowen_matrix(n)[i, j] == r.dist(pts[i], pts[j])


def test_full_shift_bowen_first_disagreement_formula():
    r = ref.full_shift(2, 12)
    # words disagreeing first at letter k: d_n = 2^-(k-n+1) for n <= k
    for k in [3, 5, 7]:
        x = [0] * 12
        y = [0] * 12
        y[k] = 1
        t = build_table(r.system, ref.word_letters([Point(tuple(x)), Point(tuple(y))], 2), 8, [])
        for n in range(1, k + 1):
            d = 2.0 ** (-(k - n + 1))
            assert bowen_dist(r, t, 0, 1, n) == d
            ref.assert_dn(t, n, [[0.0, d], [d, 0.0]])


def test_bowen_matrix_matches_scalar_and_monotone():
    # the table's rule puts every pair at the scalar d_n (exact dyadics on
    # the full shift), and the exact d_n grows with n
    r = ref.full_shift(3, 9)
    pts = r.system.sample(18, seed=5)
    t = build_table(r.system, pts, 5, [])
    prev = None
    for n in range(1, 6):
        ref.assert_dn(t, n, [[bowen_dist(r, t, i, j, n) for j in range(18)] for i in range(18)])
        m = ref.lattice_dn(pts, 2, range(n))
        if prev is not None:
            assert np.all(m >= prev)
        prev = m


def test_bowen_is_metric_on_sample():
    # the exact d_4 is a metric, and it is the table's
    s = make_full_shift(2, 10)
    pts = s.sample(15, seed=8)
    t = build_table(s, pts, 4, [])
    m = ref.lattice_dn(pts, 2, range(4))
    assert np.array_equal(m, m.T) and not np.diag(m).any()
    for i in range(15):
        for j in range(15):
            for k in range(15):
                assert m[i, j] <= m[i, k] + m[k, j]
    ref.assert_dn(t, 4, m / 2.0**10)


def test_lipschitz_propagation_bound(seeded_six):
    # d_n(x, y) <= max(1, C)^(n-1) d(x, y) with C the map constant
    t = build_table(seeded_six, seeded_six.points, 4, [])
    c = max(1.0, seeded_six.lip_map)
    base = t.bowen_matrix(1)
    for n in range(1, 5):
        m = t.bowen_matrix(n)
        assert np.all(m <= c ** (n - 1) * base * (1 + 1e-9) + 1e-15)


def test_birkhoff_cocycle_additivity():
    r = ref.full_shift(2, 12)
    f = ref.first_coord_potential(r)
    t = build_table(r.system, r.system.sample(20, seed=3), 6, [f.potential])
    # S_{a+b} f(x) = S_a f(x) + S_b f(T^a x), recomputed independently
    a, b = 2, 3
    for i in range(20):
        lhs = t.birkhoff(f.potential)[i, a + b]
        direct_tail = sum(f.eval(orbit(r, t, i, a + j)) for j in range(b))
        assert abs(lhs - (t.birkhoff(f.potential)[i, a] + direct_tail)) <= 1e-12


def test_build_table_horizon_guard():
    s = make_full_shift(2, 5)
    with pytest.raises(ValueError, match="horizon"):
        build_table(s, s.sample(4, seed=0), 5, [])
    build_table(s, s.sample(4, seed=0), 4, [])  # n_max + 1 == horizon is fine


def test_birkhoff_builds_a_missing_table_once(monkeypatch):
    s = make_full_shift(3, 8)
    pts = s.sample(40, seed=2)
    f = zoo.first_coord_potential(s, scale=0.3, offset=-0.1)
    g = zoo.first_coord_potential(s, scale=-0.2)
    eager = build_table(s, pts, 5, [f]).birkhoff(f)
    calls = []
    ensure = OrbitTable.ensure_potential
    monkeypatch.setattr(
        OrbitTable, "ensure_potential", lambda self, h: calls.append(h) or ensure(self, h)
    )
    t = build_table(s, pts, 5, [])
    lazy = t.birkhoff(f)
    assert t.birkhoff(f) is lazy
    assert lazy.tobytes() == eager.tobytes()
    # another potential takes the one slot; a reread of f rebuilds the same bits
    assert t.birkhoff(g) is t.birkhoff(g)
    again = t.birkhoff(f)
    assert again is not lazy and again.tobytes() == lazy.tobytes()
    # reads register nothing
    assert calls == [] and t._birkhoff == {}


def _loop_table(r, t, f):
    """The reference prefix sums: a left-to-right running sum of f's
    scalar eval along each point's scalar orbit."""
    tab = np.zeros((t.size, t.n_max + 1))
    for i in range(t.size):
        acc = 0.0
        for j in range(t.n_max):
            acc += f.eval(orbit(r, t, i, j))
            tab[i, j + 1] = acc
    return tab


_signed = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0.1, -0.7, 1e16, -1e16]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


def _array_systems(data, values):
    """(route, sample, scalar base potentials) on a finite system, a full
    shift and grids."""
    size = len(values)
    dm = np.ones((size, size)) - np.eye(size)
    index = st.integers(0, size - 1)
    finite = ref.finite(zoo.make_finite_system(dm, data.draw(st.lists(index, min_size=size, max_size=size))))
    # repeated points, and the empty sample
    pts = np.array(data.draw(st.lists(index, max_size=9)), dtype=int)
    yield finite, pts, [ref.table(finite, values), ref.constant(-0.0)]
    shifts = [ref.full_shift(3, 8)] + [ref.grid_shift(D, m, 6) for D, m in ((1, 7), (2, 9), (1, 129))]
    for r in shifts:
        scale, offset = data.draw(_signed), data.draw(_signed)
        yield r, r.system.sample(12, seed=size), [
            ref.first_coord_potential(r, scale=scale, offset=offset),
            ref.first_coord_potential(r, scale=0.0, offset=-0.5),
            ref.first_coord_potential(r, scale=-0.0, offset=-0.0),
            ref.constant(data.draw(_signed)),
        ]


def _composed(data, bases):
    """A base potential under a drawn chain of array-form combinators."""
    f = data.draw(st.sampled_from(bases))
    for op in data.draw(st.lists(st.sampled_from(["scale", "shift", "sum", "gap"]), max_size=3)):
        if op == "scale":
            f = ref.scaled(f, data.draw(_signed))
        elif op == "shift":
            f = ref.shifted(f, data.draw(_signed))
        elif op == "sum":
            f = ref.summed(f, data.draw(st.sampled_from(bases)))
        else:
            f = ref.gap(data.draw(_signed), f)
    return f


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(_signed, min_size=1, max_size=7),
    data=st.data(),
    n_max=st.integers(1, 6),
)
def test_prefix_sums_equal_the_running_loop_bitwise(values, data, n_max):
    # every array-form constructor, with signed zeros, scale 0 and negative
    # offsets: the array-built table equals the per-point running loop
    for r, sample, bases in _array_systems(data, values):
        for f in bases + [_composed(data, bases) for _ in range(2)]:
            t = build_table(r.system, sample, min(n_max, r.system.horizon - 1), [f.potential])
            got = t.birkhoff(f.potential)
            want = _loop_table(r, t, f)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            idx = np.arange(t.size)[::-1]
            point = t.point_values(f.potential, idx)
            scalar = np.array([f.eval(orbit(r, t, i, 0)) for i in idx], dtype=float)
            assert np.array_equal(point, scalar)
            assert np.array_equal(np.signbit(point), np.signbit(scalar))


def _composite_systems():
    """(route, its scalar potential) for an iterate of a full shift, a
    full shift x grid product, and a product of an iterate of a finite
    system with that product."""
    base = ref.full_shift(2, 9)
    f = ref.shifted(ref.first_coord_potential(base, scale=0.3), -0.2)
    grid = ref.grid_shift(1, 7, 8)
    g = ref.first_coord_potential(grid, scale=-1.5)
    finite = ref.finite(zoo.random_finite_system(5, seed=4, low=0.1, high=1.0))
    cubed, cubed_pot = ref.iterate(finite, ref.random_table(finite, seed=8), 3)
    product_route, product_pot = ref.product(base, grid, f, g)
    return [ref.iterate(base, f, 2), (product_route, product_pot),
            ref.product(cubed, product_route, cubed_pot, product_pot)]


def test_products_and_iterates_keep_the_scalar_loop():
    # their potentials' array forms over the composed step data give the
    # running eval loop's Birkhoff sums and point values, bitwise
    for r, pot in _composite_systems():
        for h in (pot, ref.scaled(pot, -0.5), ref.constant(0.7)):
            t = build_table(r.system, r.system.sample(20, seed=1), 3, [h.potential])
            assert np.array_equal(t.birkhoff(h.potential), _loop_table(r, t, h))
            idx = np.arange(t.size)[::-1]
            scalar = np.array([h.eval(orbit(r, t, i, 0)) for i in idx], dtype=float)
            assert np.array_equal(t.point_values(h.potential, idx), scalar)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4))
def test_bowen_monotone_in_n_property(seed, n):
    s = make_full_shift(2, 8)
    pts = s.sample(10, seed=seed)
    assert np.all(ref.lattice_dn(pts, 2, range(n)) <= ref.lattice_dn(pts, 2, range(n + 1)))


def test_bowen_matrix_names_a_system_without_a_float_metric():
    # only a finite system (and its iterate) keeps a float distance matrix
    s = make_full_shift(2, 6)
    t = build_table(s, s.sample(5, seed=0), 3)
    assert s.pairwise_dist is None
    with pytest.raises(ValueError, match="'shift2'"):
        t.bowen_matrix(2)


# -- structure-aware kernels against the exact d_n --------------------------


def _dense_greedy(close, order):
    """The greedy net of ``order`` on a bool (N, N) closeness matrix."""
    alive = np.ones(len(close), dtype=bool)
    kept = []
    for idx in order:
        if alive[idx]:
            kept.append(int(idx))
            alive &= ~close[idx]
    return sorted(kept)


def _dense_separated(close, w):
    return not any(close[a, b] for i, a in enumerate(w) for b in w[i + 1:])


def _dense_spans(close, w):
    return len(w) > 0 and bool(np.all(close[:, w].any(axis=1)))


def _probes(t, w):
    return [w, w[1:], list(range(min(6, t.size))), [0, 0], list(range(t.size))]


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 5, 7, 9, 11])
def test_grid_kernel_bitwise_equals_step_fold(D, m):
    # the greedy, separated and spanning answers of both lattice kernels
    # equal those of the exact integer d_n: the class kernel at m = 2 and
    # at eps = 2^-9 (every gap 1), the bitset kernel elsewhere.  Every
    # (n, eps) cell is compared, ties of d_n with an eps on a grid multiple
    # included
    s = zoo.make_grid_shift(D, m, 6)
    f = zoo.first_coord_potential(s)
    t = build_table(s, s.sample(150, seed=D * 100 + m), 5, [f])
    on_grid = [k / (m - 1) for k in (1, 2, 3) if k < m - 1] + [1 / (4 * (m - 1))]
    off_grid = [0.3, 0.17, 0.05, 0.013, 2.0**-9]
    for n in range(1, 6):
        assert {t for _, t in zoo.lattice_gaps(m, 2.0**-9, range(n), 6)} == {1}
        order = np.argsort(-t.birkhoff(f)[:, n], kind="stable")
        for eps in on_grid + off_grid:
            close = ref.lattice_close(t.points, m, range(n), eps)
            w = greedy_witness(t, f, n, eps)
            assert w.tolist() == _dense_greedy(close, order)
            assert t.greedy_net(np.arange(t.size), n, eps).tolist() == _dense_greedy(close, range(t.size))
            for probe in _probes(t, w):
                assert t.is_separated(probe, n, eps) == _dense_separated(close, probe)
                assert t.spans(probe, n, eps) == _dense_spans(close, probe)


def test_grid_kernel_wide_letters_match_step_fold():
    # m = 129: letter 128 and the difference 128 overflow int8, so the
    # lattice letters are int16
    s = zoo.make_grid_shift(1, 129, 4)
    t = build_table(s, s.sample(200, seed=5), 3, [])
    assert t.points.dtype == np.int16
    for n in (1, 3):
        for eps in (0.3, 0.1, 0.013):
            close = ref.lattice_close(t.points, 129, range(n), eps)
            w = t.greedy_net(np.arange(t.size), n, eps)
            assert w.tolist() == _dense_greedy(close, range(t.size))
            assert t.spans(w[1:], n, eps) == _dense_spans(close, w[1:])


@pytest.mark.parametrize(
    "m,eps,count",
    [(11, 0.2, 24), (7, 1 / 6, 56), (9, 0.125, 135), (11, 0.1, 72), (17, 0.25, 30)],
)
def test_grid_greedy_is_the_exact_count_at_ties(m, eps, count):
    # exhaustive words of length 3, zero potential: the greedy keeps exactly
    # the lattice oracle's count, the true maximum
    s = zoo.make_grid_shift(1, m, 3)
    f = zoo.zero_potential()
    t = build_table(s, zoo.enumerate_words(m, 3), 1, [f])
    kept = greedy_witness(t, f, 1, eps)
    assert len(kept) == count
    assert math.log(count) == pytest.approx(
        lattice_log_pressure(m, m, 1, 1, eps, np.zeros(m), L=3), abs=1e-12
    )
    assert t.is_separated(kept, 1, eps) and t.spans(kept, 1, eps)


@pytest.mark.parametrize("m,L,count", [(2, 6, 90), (3, 4, 120), (2, 9, 300)])
def test_full_shift_kernel_matches_dense_greedy(m, L, count):
    s = make_full_shift(m, L)
    pts = s.sample(count, seed=m * L)
    f = zoo.first_coord_potential(s, offset=0.5)
    t = build_table(s, pts, L - 1, [f])
    if m**L < count:
        assert len(np.unique(pts, axis=0)) < len(pts)  # duplicate words are in the sample
    # non-dyadic, exactly dyadic, and deep enough that n + K >= L
    eps_values = [0.9, 0.5, 0.3, 0.25, 0.1, 2.0**-5, 2.0**-8, 1e-6]
    for n in range(1, L):
        order = np.argsort(-t.birkhoff(f)[:, n], kind="stable")
        for eps in eps_values:
            close = ref.lattice_close(pts, 2, range(n), eps)
            w = greedy_witness(t, f, n, eps)
            assert w.tolist() == _dense_greedy(close, order)
            probes = [w, w[1:], list(range(min(6, count))), [0, 0]]
            for probe in probes:
                assert t.is_separated(probe, n, eps) == _dense_separated(close, probe)
                assert t.spans(probe, n, eps) == _dense_spans(close, probe)
    for eps in eps_values:
        assert net_size(t, eps) == len(_dense_greedy(ref.lattice_close(pts, 2, [0], eps), range(count)))


def test_iterates_and_products_keep_the_step_metric():
    # off the float ties, the closeness tests of products, iterates and
    # finite systems give the scalar d_n's greedy, separated and spanning
    # answers, and a finite system's float matrix folds to it; the finite
    # sample repeats points, which lie at d_n = 0
    finite = ref.finite(zoo.random_finite_system(9, seed=3, low=0.1, high=1.0))
    repeated = np.random.default_rng(5).integers(0, 9, 30)
    cases = [(r, pot.potential, r.system.sample(24, seed=4)) for r, pot in _composite_systems()]
    cases.append((finite, zoo.random_table_potential(finite.system, seed=6), repeated))
    for r, pot, pts in cases:
        t = build_table(r.system, pts, 3, [pot])
        for n in range(1, 4):
            scalar = np.array(
                [[bowen_dist(r, t, i, j, n) for j in range(t.size)] for i in range(t.size)]
            )
            if r.system.pairwise_dist is not None:
                assert np.array_equal(t.bowen_matrix(n), scalar)
            order = np.argsort(-t.birkhoff(pot)[:, n], kind="stable")
            for eps in (0.5, 0.3, 0.125):
                close = scalar < eps
                w = greedy_witness(t, pot, n, eps)
                assert w.tolist() == _dense_greedy(close, order)
                assert t.greedy_net(np.arange(t.size), n, eps).tolist() == _dense_greedy(close, range(t.size))
                for probe in _probes(t, w):
                    assert t.is_separated(probe, n, eps) == _dense_separated(close, probe)
                    assert t.spans(probe, n, eps) == _dense_spans(close, probe)


def _random_word_potential(m, L, seed):
    """A potential of the whole word: it has no array form over the
    letters, so a table gets its prefix sums from ``_loop_table``."""
    rng = np.random.default_rng(seed)
    words = [w for k in range(1, L + 1) for w in product(range(m), repeat=k)]
    vals = dict(zip(words, rng.uniform(-1.0, 1.0, size=len(words))))
    f = zoo.Potential(lip=2.0, sup_norm=1.0, name=f"words[seed={seed}]", array=None)
    return ref.Scalar(f, lambda p: float(vals[p.code]))


def _ultrametric_cases():
    # every (n, eps) on N <= 9; a few on N = 16, where one oracle call
    # enumerates 2^16 subsets
    for m, L in [(2, 3), (3, 2)]:
        for n in range(1, L):
            for eps in (0.9, 0.5, 0.3, 0.25, 0.2, 2.0**-3):
                for pot in ("letter", "words"):
                    yield m, L, n, eps, pot
    yield from [(2, 4, 2, 0.5, "words"), (2, 4, 3, 0.2, "letter"), (4, 2, 1, 0.3, "words")]


@pytest.mark.parametrize("m,L,n,eps,pot", list(_ultrametric_cases()))
def test_prefix_greedy_is_the_exact_supremum(m, L, n, eps, pot):
    r = ref.full_shift(m, L)
    s = r.system
    t = build_table(s, zoo.enumerate_words(m, L), L - 1, [])
    if pot == "letter":
        f = zoo.first_coord_potential(s, offset=0.25)
    else:
        scalar = _random_word_potential(m, L, seed=L)
        f = scalar.potential
        t._birkhoff[f] = _loop_table(r, t, scalar)
    assert t.size <= 16
    greedy = greedy_separated(t, f, n, eps).log_value
    assert greedy == exact_pressure(t, f, n, eps).exact_log_p


def _arrays(v):
    """The arrays held in v, through dicts, lists and tuples."""
    if isinstance(v, np.ndarray):
        return [v]
    items = v.values() if isinstance(v, dict) else v if isinstance(v, (list, tuple)) else []
    return [a for x in items for a in _arrays(x)]


def _largest_cached_array(t):
    arrays = _arrays(list(vars(t).values()))
    assert arrays
    return max(a.size for a in arrays)


def test_full_shift_estimate_builds_no_square_matrix():
    s = make_full_shift(2, 12)
    f = zoo.first_coord_potential(s)
    t = build_table(s, zoo.enumerate_words(2, 12), 4, [f])
    estimate_mmdim(t, f, [2.0**-4, 2.0**-5, 2.0**-6], [1, 2, 3, 4])
    assert _largest_cached_array(t) < t.size * t.size


def test_grid_estimate_builds_no_square_matrix():
    # the grid, its product with a one-point system and its iterate by 2
    grid = zoo.make_grid_shift(2, 9, 10)
    zero = zoo.zero_potential()
    one = zoo.make_finite_system([[0.0]], [0])
    for s, f in [(grid, zero), ref.make_product(grid, one, zero, zero), ref.make_iterate(grid, zero, 2)]:
        t = build_table(s, s.sample(300, seed=2), 4, [f])
        estimate_mmdim(t, f, [0.2, 0.1, 0.05], [1, 2, 3, 4])
        assert _largest_cached_array(t) < t.size * t.size


def test_wide_grid_mixed_tests_build_no_alphabet_matrix():
    # m = 2^16 letters, eps <= 2/(m-1): position 0 tests equality (gap 1)
    # and later positions gaps 2, 4, ..., so one rule mixes equality and
    # relation tests; an equality table over the raw letters would be m x m
    grid = zoo.make_grid_shift(1, 2**16, 4)
    zero = zoo.zero_potential()
    t = build_table(grid, grid.sample(64, seed=1), 3, [zero])
    assert zoo.letter_gap(2**16, 1e-5, 0) == 1 < zoo.letter_gap(2**16, 1e-5, 1)
    tracemalloc.start()
    try:
        estimate_mmdim(t, zero, [1e-4, 5e-5, 2e-5], [1, 2, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _largest_cached_array(t) < t.size * t.size
    assert peak < 2**20


@pytest.mark.parametrize("system", [make_full_shift(2, 6), zoo.make_grid_shift(1, 5, 6),
                                    zoo.random_finite_system(4, 0)], ids=lambda s: s.name)
@pytest.mark.parametrize("n, eps", [(1, 0.5), (3, 0.03), (1, 1.5), (3, 0.5)])
def test_empty_order_keeps_nothing(system, n, eps):
    # (1, 0.5) and (3, 0.03) are every-gap-1 rules on both shifts; (3, 0.5)
    # has gaps above 1 on the grid, and (1, 1.5) constrains no letter
    sample = system.sample(8, 0)
    for pts in (sample[:0], sample):
        t = build_table(system, pts, 3)
        assert t.greedy_net([], n, eps).tolist() == []
        assert t.is_separated([], n, eps)
        assert t.spans([], n, eps) == (len(pts) == 0)


def _far_eps_cases():
    """(system, sample): all 16 words of a full shift, a grid sample and a
    finite system whose distances are at most 1."""
    grid = zoo.make_grid_shift(1, 5, 4)
    finite = zoo.random_finite_system(6, seed=1, low=0.1, high=1.0)
    cases = [(make_full_shift(2, 4), zoo.enumerate_words(2, 4)), (grid, grid.sample(40, seed=3)),
             (finite, finite.points)]
    return [pytest.param(s, pts, id=s.name) for s, pts in cases]


@pytest.mark.parametrize("system, pts", _far_eps_cases())
@pytest.mark.parametrize("n", [1, 3])
def test_eps_above_every_distance_keeps_one_point(system, pts, n):
    # at eps 1.5 every two points are close (the shifts have no test at
    # all): a nonempty order keeps its first entry, and any nonempty
    # witness spans
    t = build_table(system, pts, 3)
    assert t.greedy_net(np.arange(t.size), n, 1.5).tolist() == [0]
    rng = np.random.default_rng(n)
    for size in (1, 2, t.size):
        order = rng.permutation(t.size)[:size]
        assert t.greedy_net(order, n, 1.5).tolist() == [order[0]]
        assert t.spans(order, n, 1.5)
        assert t.is_separated(order, n, 1.5) == (size == 1)


# -- no dense d_n behind a query ---------------------------------------------


def _dense_free(s):
    """``s`` with a ``pairwise_dist`` that fails the test when called."""

    def dense(*args, **kwargs):
        raise AssertionError(f"{s.name}: a query read the dense metric")

    return dataclasses.replace(s, pairwise_dist=dense)


def _every_kind():
    """(system, sample) of every kind, built from dense-free parts."""
    zero = zoo.zero_potential()
    full, grid = _dense_free(make_full_shift(3, 6)), _dense_free(zoo.make_grid_shift(1, 7, 6))
    finite = _dense_free(zoo.random_finite_system(12, seed=2, low=0.1, high=1.0))
    one = _dense_free(zoo.make_finite_system([[0.0]], [0]))
    product_system = ref.make_product(grid, one, zero, zero)[0]
    grid_iterate = ref.make_iterate(grid, zero, 2)[0]
    finite_iterate = ref.make_iterate(finite, zero, 2)[0]
    for s in (full, grid, finite, product_system, grid_iterate, finite_iterate):
        yield s, s.points if s.points is not None else s.sample(60, seed=1)


def test_queries_read_no_dense_metric(monkeypatch):
    # every kind answers greedy_net, is_separated and spans through its
    # closeness tests alone: both kernels, at eps on and off grid multiples
    def dense(self, n):
        raise AssertionError("a query read bowen_matrix")

    monkeypatch.setattr(OrbitTable, "bowen_matrix", dense)
    for s, pts in _every_kind():
        t = build_table(s, pts, 2)
        for n in (1, 2):
            for eps in (0.9, 1 / 3, 0.3, 0.05, 2.0**-9):
                w = t.greedy_net(np.arange(t.size), n, eps)
                assert t.is_separated(w, n, eps) and t.spans(w, n, eps)
                assert not t.spans(w[1:], n, eps)  # w[0] lies far from the rest


def _listed(s):
    """``s`` whose closeness hands out the list of every test at once."""
    return dataclasses.replace(s, closeness=lambda *args: list(s.closeness(*args)))


def _close_of(tests, size: int) -> np.ndarray:
    """The (N, N) bool closeness of every test, read to the end."""
    close = np.ones((size, size), dtype=bool)
    for _, col, near in tests:
        close &= col[:, None] == col if near is None else near[np.ix_(col, col)]
    return close


def test_stopping_early_never_changes_an_answer():
    # every kind, and a grid iterate whose equality and relation tests
    # interleave (eps 0.1 on 7 levels: gap 1 at weight 1, gap 2 at weight
    # 1/2), where 8 words fall apart into classes after a relation test;
    # a table that stops early answers as one handed the whole list, and
    # as the closeness of every test
    grid = zoo.make_grid_shift(1, 7, 6)
    grid_iterate, read = _counting(ref.make_iterate(grid, zoo.zero_potential(), 2)[0])
    words = grid.sample(8, seed=0)
    build_table(grid_iterate, words, 2).greedy_net(range(8), 2, 0.1)
    # (2, 0, 1) leaves 8 classes, so the test handed out after it goes unread
    assert read == [(0, 0, 1), (1, 0, 2), (2, 0, 1), (3, 0, 2)]
    cases = [(s, pts, (0.9, 1 / 3, 0.3, 0.1, 0.05, 2.0**-9)) for s, pts in _every_kind()]
    rng = np.random.default_rng(0)
    for s, pts, eps_list in cases + [(grid_iterate, words, (0.1,))]:
        t, whole = build_table(s, pts, 2), build_table(_listed(s), pts, 2)
        for n in (1, 2):
            for eps in eps_list:
                close = _close_of(s.closeness(pts, range(n), eps), t.size)
                order = rng.permutation(t.size)
                w = t.greedy_net(order, n, eps)
                assert whole.greedy_net(order, n, eps).tolist() == w.tolist() == _dense_greedy(close, order)
                for probe in (w, w[1:], order[: len(w) + 1]):
                    assert t.is_separated(probe, n, eps) == whole.is_separated(probe, n, eps)
                    assert t.is_separated(probe, n, eps) == _dense_separated(close, probe)
                    assert t.spans(probe, n, eps) == whole.spans(probe, n, eps) == _dense_spans(close, probe)


# -- exact closeness through products and iterates --------------------------


def _grid_multiples(m, depth):
    """Every eps = a/(m-1) * 2^-j in (0, 1) with j < depth, as floats."""
    return sorted({a / ((m - 1) << j) for j in range(depth) for a in range(1, (m - 1) << j)})


def _with_one_point(grid, words):
    """A grid x one-point product and its table's sample, row r holding word r."""
    zero = zoo.zero_potential()
    one = zoo.make_finite_system([[0.0]], [0])
    system, _ = ref.make_product(grid, one, zero, zero)
    return system, ref.pair_samples(words, one.points, cartesian=True)


@pytest.mark.parametrize("m", range(3, 11))
def test_product_with_one_point_keeps_the_grid_answers(m):
    # d_n of a grid x one-point product is the grid's, so on every grid
    # multiple the product gives the grid's greedy nets and separated and
    # spanning answers, ties included
    grid = zoo.make_grid_shift(1, m, 3)
    words = zoo.enumerate_words(m, 3)
    product_system, pairs = _with_one_point(grid, words)
    tg, tp = build_table(grid, words, 2), build_table(product_system, pairs, 2)
    order = np.random.default_rng(m).permutation(len(words))
    for n in (1, 2):
        for eps in _grid_multiples(m, 3):
            for scan in (np.arange(len(words)), order):
                w = tg.greedy_net(scan, n, eps)
                assert tp.greedy_net(scan, n, eps).tolist() == w.tolist()
            for probe in (w, w[1:], order[: len(w) + 1].tolist()):
                assert tp.is_separated(probe, n, eps) == tg.is_separated(probe, n, eps)
                assert tp.spans(probe, n, eps) == tg.spans(probe, n, eps)


def test_roadmap_grid_example_is_exact_through_a_product():
    # D = 1, m = 6, L = 3, all 216 words, n = 1: 4 points at eps 0.4 and 12
    # at eps 0.2, with and without a one-point factor (the float d_n gave
    # the product 6 and 24)
    grid = zoo.make_grid_shift(1, 6, 3)
    words = zoo.enumerate_words(6, 3)
    product_system, pairs = _with_one_point(grid, words)
    for s, pts in ((grid, words), (product_system, pairs)):
        t = build_table(s, pts, 1)
        assert [len(t.greedy_net(np.arange(216), 1, eps)) for eps in (0.4, 0.2)] == [4, 12]


@pytest.mark.parametrize("m", [4, 6, 7, 10])
def test_grid_iterate_is_its_exact_d_n(m):
    # the iterate by 2 of a grid keeps the greedy net, separated and
    # spanning answers of its d_n computed exactly from the letters: the
    # base d over the steps 0, 2, .., 2(n - 1)
    grid = zoo.make_grid_shift(1, m, 6)
    it, _ = ref.make_iterate(grid, zoo.zero_potential(), 2)
    words = grid.sample(50, seed=m)
    t = build_table(it, words, 2)
    for n in (1, 2):
        for eps in _grid_multiples(m, 3) + [0.3, 0.07]:
            close = ref.lattice_close(words, m, [2 * j for j in range(n)], eps)
            w = t.greedy_net(np.arange(t.size), n, eps)
            assert w.tolist() == _dense_greedy(close, range(t.size))
            for probe in _probes(t, w):
                assert t.is_separated(probe, n, eps) == _dense_separated(close, probe)
                assert t.spans(probe, n, eps) == _dense_spans(close, probe)


@pytest.mark.parametrize("m", [4, 6, 7])
def test_exact_pressure_is_the_grids_through_a_product(m):
    # N = 10 words of a grid, with and without a one-point factor: the same
    # exact separated and spanning pressures at every grid multiple
    grid = zoo.make_grid_shift(1, m, 2)
    words = zoo.enumerate_words(m, 2)[np.random.default_rng(m).choice(m * m, 10, replace=False)]
    f = zoo.first_coord_potential(grid)
    one = zoo.make_finite_system([[0.0]], [0])
    product_system, product_f = ref.make_product(grid, one, f, constant_potential(0.0))
    tg = build_table(grid, words, 1, [f])
    tp = build_table(product_system, ref.pair_samples(words, one.points, cartesian=True), 1, [product_f])
    for eps in _grid_multiples(m, 3):
        assert exact_pressure(tp, product_f, 1, eps) == exact_pressure(tg, f, 1, eps)


# -- shift letter arrays against the Point route -----------------------------


def _point_full_sample(m, L, count, seed):
    """The reference full-shift sample: one tuple of int letters per word."""
    rng = np.random.default_rng(seed)
    return [Point(tuple(int(a) for a in row)) for row in rng.integers(0, m, size=(count, L))]


def _point_grid_sample(D, m, L, count, seed):
    """The reference grid sample: words of letters drawn from the alphabet tuples."""
    alphabet = ref.grid_alphabet(D, m)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(alphabet), size=(count, L))
    return [Point(tuple(alphabet[i] for i in row)) for row in idx]


def _word_cases():
    """(route, letter array, the same words as reference Points) for
    exhaustive and sampled full shifts and grids, D = 1..3, m up to 9 (and
    129, whose letters need int16)."""
    for m, L in [(2, 7), (3, 5), (5, 4), (9, 3)]:
        r = ref.full_shift(m, L)
        yield r, zoo.enumerate_words(m, L), [Point(w) for w in product(range(m), repeat=L)]
        for seed in (0, 1, 7):
            yield r, r.system.sample(60, seed), _point_full_sample(m, L, 60, seed)
    for D, m, L in [(1, 3, 4), (2, 3, 2), (3, 2, 2)]:
        alphabet = ref.grid_alphabet(D, m)
        yield (ref.grid_shift(D, m, L), zoo.enumerate_words(m, L, D),
               [Point(w) for w in product(alphabet, repeat=L)])
    for D, m in [(1, 2), (1, 9), (1, 129), (2, 3), (2, 9), (3, 2), (3, 5), (3, 9)]:
        r = ref.grid_shift(D, m, 5)
        for seed in (0, 1, 7):
            yield r, r.system.sample(60, seed), _point_grid_sample(D, m, 5, 60, seed)


def test_words_are_the_point_route_bitwise():
    # a letter array's Point view is the reference Points; a table of the
    # array holds it as it is, and one of the Points read back into
    # letters agrees with it bitwise in letters (with their int type),
    # step data, Birkhoff tables and greedy witnesses
    cases = 0
    for r, words, points in _word_cases():
        s = r.system
        assert isinstance(words, np.ndarray) and words.ndim == 3
        assert repr(r.points(words)) == repr(points)  # int vs float letters too
        f = zoo.first_coord_potential(s, scale=-0.7, offset=0.3)
        n_max = s.horizon - 1
        tw = build_table(s, words, n_max, [f])
        tp = build_table(s, r.letters(points), n_max, [f])
        assert tw.points is words
        assert tw.points.dtype == tp.points.dtype and np.array_equal(tw.points, tp.points)
        assert np.array_equal(tw._step_data(), tp._step_data())
        assert np.array_equal(tw.birkhoff(f), tp.birkhoff(f))
        for n in range(1, n_max + 1):
            for eps in (0.9, 0.3, 0.1, 2.0**-9):
                assert greedy_witness(tw, f, n, eps).tolist() == greedy_witness(tp, f, n, eps).tolist()
        cases += 1
    assert cases == 4 * 4 + 3 + 8 * 3
