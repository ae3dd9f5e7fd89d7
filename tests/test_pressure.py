import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_route as ref
from meandim import system_zoo as zoo
from meandim.numerics import logsumexp
from meandim.oracle import exact_pressure
from meandim.orbit_engine import build_table
from meandim.pressure import (
    check_sandwich,
    greedy_separated,
    greedy_witness,
    log_sum,
    spanning_from_separated,
)
from meandim.mmdim import net_size
from meandim.system_zoo import (
    constant_potential,
    enumerate_words,
    make_full_shift,
    shifted_potential,
)


def test_eps_below_min_pairwise_keeps_everything(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=1)
    t = build_table(seeded_six, seeded_six.points, 2, [f])
    dn = t.bowen_matrix(2)
    eps = 0.9 * float(np.min(dn[dn > 0]))
    p = greedy_separated(t, f, 2, eps)
    assert sorted(p.witness) == list(range(6))
    expected = logsumexp(t.birkhoff(f)[:, 2] * math.log(1 / eps))
    assert p.log_value == pytest.approx(expected, abs=1e-12)


def test_one_point_pressure(one_point):
    f = constant_potential(0.8)
    t = build_table(one_point, one_point.points, 4, [f])
    p = greedy_separated(t, f, 3, 0.5)
    assert p.witness.tolist() == [0]
    assert p.log_value == pytest.approx(3 * 0.8 * math.log(2.0), abs=1e-12)
    q = spanning_from_separated(t, f, 3, 0.5)
    assert q.log_value == p.log_value and q.kind == "spanning_upper"


def test_eps_above_diameter_single_max_point(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=2)
    t = build_table(seeded_six, seeded_six.points, 2, [f])
    dn = t.bowen_matrix(2)
    eps = min(0.99, float(np.max(dn)) * 1.01)
    if eps <= float(np.max(dn)):  # guard: need eps above the diameter
        eps = 0.99
    assert eps > float(np.max(dn))
    q = spanning_from_separated(t, f, 2, eps)
    weights = t.birkhoff(f)[:, 2]
    star = int(np.argmax(weights))
    assert q.witness.tolist() == [star]
    assert q.log_value == pytest.approx(weights[star] * math.log(1 / eps), abs=1e-12)


def test_witness_validity(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=3)
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    for n in (1, 2, 3):
        for eps in (0.15, 0.3, 0.6):
            w = greedy_witness(t, f, n, eps)
            assert t.is_separated(w, n, eps)
            assert t.spans(w, n, eps)


def test_greedy_below_exact_with_recorded_gap():
    s = zoo.random_finite_system(6, seed=17, low=0.1, high=1.0)
    f = zoo.random_table_potential(s, seed=18)
    t = build_table(s, s.points, 2, [f])
    ep = exact_pressure(t, f, 2, 0.4)
    lo = greedy_separated(t, f, 2, 0.4)
    gap = ep.exact_log_p - lo.log_value
    assert gap >= -1e-12  # greedy never exceeds the sup


def test_additive_constant_shifts_log_value_with_same_witness(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=4)
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    c = 0.7321
    fc = shifted_potential(f, c)
    t.ensure_potential(fc)
    for n, eps in [(1, 0.3), (2, 0.45), (3, 0.2)]:
        a = greedy_separated(t, f, n, eps)
        b = greedy_separated(t, fc, n, eps)
        assert a.witness.tolist() == b.witness.tolist()
        assert b.log_value - a.log_value == pytest.approx(
            n * c * math.log(1 / eps), abs=1e-10
        )


def test_monotone_in_potential_same_witness(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=5)
    bump = zoo.random_table_potential(seeded_six, seed=6, low=0.0, high=0.5)
    g = zoo.table_potential(
        seeded_six,
        f.array(seeded_six.points) + bump.array(seeded_six.points),
        name="f+bump",
    )
    t = build_table(seeded_six, seeded_six.points, 3, [f, g])
    for n, eps in [(1, 0.25), (3, 0.5)]:
        w = greedy_witness(t, f, n, eps)
        lf = logsumexp(t.birkhoff(f)[w, n] * math.log(1 / eps))
        lg = logsumexp(t.birkhoff(g)[w, n] * math.log(1 / eps))
        assert lf <= lg + 1e-12


def test_eps_validation():
    s = make_full_shift(2, 6)
    f = constant_potential(0.0)
    t = build_table(s, s.sample(8, seed=0), 3, [f])
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            greedy_separated(t, f, 2, bad)


def test_empty_sample_rejected(one_point):
    t = build_table(one_point, one_point.points, 2, [])
    t.points = t.points[:0]
    f = constant_potential(0.0)
    with pytest.raises(ValueError, match="empty"):
        greedy_witness(t, f, 1, 0.5)


# ------------------------------------------------------------- log_sum


def _sum_cases():
    """(table, potential, witness, n, eps) on a finite system, a full
    shift, a grid and a product of the first two."""
    six = zoo.random_finite_system(6, seed=7, low=0.1, high=1.0)
    f6 = zoo.random_table_potential(six, seed=3)
    yield build_table(six, six.points, 3, [f6]), f6, [4, 0, 2], 3, 0.3
    full = make_full_shift(2, 7)
    fs = zoo.first_coord_potential(full, offset=0.5)
    words = enumerate_words(2, 7)
    yield build_table(full, words, 3, [fs]), fs, [9, 3, 100, 64], 2, 0.2
    grid = zoo.make_grid_shift(1, 5, 5)
    fg = zoo.first_coord_potential(grid, scale=0.7)
    yield build_table(grid, grid.sample(40, seed=2), 3, [fg]), fg, [39, 7, 12], 3, 0.125
    prod, fp = ref.make_product(six, full, f6, fs)
    pts = ref.pair_samples(six.points, words[:8], cartesian=True)
    yield build_table(prod, pts, 3, [fp]), fp, [0, 47, 13, 20], 3, 0.4


@pytest.mark.parametrize("shift", [None, 0.0, 0.37])
def test_log_sum_is_the_witness_logsumexp(shift):
    for t, f, w, n, eps in _sum_cases():
        expected = logsumexp((t.birkhoff(f)[w, n] - (shift or 0.0)) * math.log(1.0 / eps))
        got = log_sum(t, f, w, n, eps) if shift is None else log_sum(t, f, w, n, eps, shift=shift)
        assert got == expected  # bitwise


def test_logsumexp_of_no_term_and_of_infinite_terms():
    assert logsumexp([]) == -math.inf
    assert logsumexp([-math.inf, -math.inf]) == -math.inf
    assert logsumexp([math.inf, 0.0]) == math.inf


# ------------------------------------------------------------- sandwich


def test_sandwich_sides_pinned():
    # both sides of (b) on fixed cases, pinned bitwise
    (t, f, *_), (ts, g, *_), (tg, h, *_), _ = _sum_cases()
    oracle = (exact_pressure(t, f, 3, 0.3), exact_pressure(t, f, 3, 0.15))
    reports = [
        check_sandwich(t, f, 2, 0.35),
        check_sandwich(t, f, 3, 0.3, oracle=oracle),
        check_sandwich(ts, g, 3, 0.2),
        check_sandwich(tg, h, 2, 0.3),
    ]
    pinned = [
        (2.3223116425097294, -1.2549264667198476),
        (3.552183432944605, -1.9913213550391404),
        (12.727004999566017, 5.090904577474992),
        (5.138963635852898, 1.7278573802286685),
    ]
    for rep, (lhs, rhs) in zip(reports, pinned):
        assert rep["ok"]
        sides = rep["checks"]["cover_dominates_separated"]
        assert (sides["lhs"], sides["rhs"]) == (lhs, rhs)


def test_sandwich_one_point_trivial(one_point):
    f = constant_potential(0.6)
    t = build_table(one_point, one_point.points, 3, [f])
    rep = check_sandwich(t, f, 2, 0.5)
    assert rep["ok"]


def test_sandwich_zero_potential_cardinality_form():
    s = zoo.random_finite_system(7, seed=31, low=0.1, high=1.0)
    f = zoo.table_potential(s, [0.0] * 7, name="zero")
    t = build_table(s, s.points, 3, [f])
    for n in (1, 2, 3):
        for eps in (0.2, 0.35, 0.5):
            pair = (
                exact_pressure(t, f, n, eps),
                exact_pressure(t, f, n, eps / 2),
            )
            # f == 0: min-spanning count <= max-separated count
            assert len(pair[0].argmin_spanning) <= len(pair[0].argmax_separated)
            rep = check_sandwich(t, f, n, eps, oracle=pair)
            assert rep["ok"], rep


def test_sandwich_seeded_draws_exact_oracle():
    rng = np.random.default_rng(99)
    for draw in range(20):
        s = zoo.random_finite_system(5, seed=1000 + draw, low=0.1, high=1.0)
        f = zoo.random_table_potential(s, seed=2000 + draw)
        t = build_table(s, s.points, 3, [f])
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.15, 0.6))
        pair = (
            exact_pressure(t, f, n, eps),
            exact_pressure(t, f, n, eps / 2),
        )
        rep = check_sandwich(t, f, n, eps, oracle=pair)
        assert rep["ok"], rep


def test_sandwich_greedy_bound_pairs():
    s = make_full_shift(2, 10)
    f = zoo.first_coord_potential(s)
    t = build_table(s, s.sample(60, seed=12), 4, [f])
    for n in (2, 4):
        for eps in (0.5, 0.25):
            rep = check_sandwich(t, f, n, eps)
            assert rep["ok"], rep


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), eps=st.floats(0.1, 0.7))
def test_greedy_witness_properties(seed, eps):
    s = zoo.random_finite_system(5, seed=seed, low=0.1, high=1.0)
    f = zoo.random_table_potential(s, seed=seed + 1)
    t = build_table(s, s.points, 2, [f])
    w = greedy_witness(t, f, 2, eps)
    assert t.is_separated(w, 2, eps)
    assert t.spans(w, 2, eps)
    # recomputable from the witness
    p = greedy_separated(t, f, 2, eps)
    assert abs(log_sum(t, f, p.witness, p.n, p.eps) - p.log_value) <= 1e-10


def _tied_sums(grid, seed, registered=True):
    """A table whose S_n f values tie exactly, and f: grid letters a/4
    (the 150-word sample of ROADMAP item 4 at seed 3) or a finite system's
    table of quarters; f is registered unless ``registered`` is False."""
    if grid:
        s = zoo.make_grid_shift(1, 5, 6)
        pts, f = s.sample(150, seed), zoo.first_coord_potential(s, offset=1.0)
    else:
        s = zoo.random_finite_system(40, seed=seed, low=0.1, high=1.0)
        quarters = np.random.default_rng(seed).integers(1, 5, size=40) / 4.0
        pts, f = s.points, zoo.table_potential(s, quarters)
    return build_table(s, pts, 3, [f] if registered else []), f


@settings(max_examples=30, deadline=None)
@given(grid=st.booleans(), seed=st.integers(0, 2**16), n=st.integers(1, 3),
       eps=st.sampled_from([0.5, 0.3, 0.2]), scales=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=4))
@example(grid=True, seed=3, n=3, eps=0.3, scales=[0.7367932391734565, 0.7367932391734566])
def test_greedy_witness_of_minus_s_f_is_the_same_at_every_s(grid, seed, n, eps, scales):
    # tied S_n f values, grid letters a/4 or a table of quarters: summed
    # step by step, -s * f breaks such ties differently at each s, but its
    # witness is ordered by S_n f itself (at the example, once 31 points at
    # one scale and 30 at the other)
    t, f = _tied_sums(grid, seed)
    by_f = t.greedy_net(np.argsort(t.birkhoff(f)[:, n], kind="stable"), n, eps)
    for a in scales:
        assert greedy_witness(t, zoo.scaled_potential(f, -a), n, eps).tolist() == by_f.tolist()


@settings(max_examples=30, deadline=None)
@given(grid=st.booleans(), seed=st.integers(0, 2**16), n=st.integers(1, 3),
       eps=st.sampled_from([0.5, 0.3, 0.2]),
       scales=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3),
       shifts=st.lists(st.floats(-5.0, 5.0), max_size=2))
@example(grid=True, seed=3, n=3, eps=0.3, scales=[0.7367932391734565, 0.7367932391734566], shifts=[-1.0])
def test_memoised_witness_and_net_size_are_a_fresh_greedy_net(grid, seed, n, eps, scales, shifts):
    # every -s f, f + c and -s f + c is ordered by f's sums, so it reads
    # the one memo entry of its sign, and that entry is the greedy net of
    # a fresh stable argsort; the net size is a fresh index-order net
    t, f = _tied_sums(grid, seed)

    def fresh(table, base, sign):
        return table.greedy_net(np.argsort(-sign * table.birkhoff(base)[:, n], kind="stable"), n, eps)

    derived = [zoo.scaled_potential(f, -a) for a in scales] + [shifted_potential(f, c) for c in shifts]
    derived += [shifted_potential(zoo.scaled_potential(f, -a), c) for a in scales for c in shifts]
    for h in derived:
        base, sign = h.order
        assert base is f
        w = greedy_witness(t, h, n, eps)
        assert w.tolist() == fresh(t, f, sign).tolist()
        assert greedy_witness(t, h, n, eps) is w is t._witnesses[f, sign, n, eps]
        # a memo hit hands out the entry itself, which no reader can write
        assert greedy_separated(t, h, n, eps).witness is w
        with pytest.raises(ValueError, match="read-only"):
            w[0] = w[-1]
    assert set(t._witnesses) <= {(f, 1.0, n, eps), (f, -1.0, n, eps)}
    size = net_size(t, eps / 2.0)
    assert size == len(t.greedy_net(np.arange(t.size), 1, eps / 2.0))
    assert net_size(t, eps / 2.0) == size and t._net_sizes == {eps / 2.0: size}
    # an unregistered base never enters the memo: not f on a table that
    # does not register it, nor the s = 0 step's 0 * f, which orders by itself
    bare, g = _tied_sums(grid, seed, registered=False)
    for table, h in ((bare, g), (bare, zoo.scaled_potential(g, -scales[0])), (t, zoo.scaled_potential(f, 0.0))):
        base, sign = h.order or (h, 1.0)
        before = dict(table._witnesses)
        assert greedy_witness(table, h, n, eps).tolist() == fresh(table, base, sign).tolist()
        assert table._witnesses == before
    assert bare._witnesses == {}


def test_greedy_net_is_a_read_only_ascending_intp_array():
    # both kernels: classes at eps 2^-9, where every grid test is an
    # equality, and packed rows at eps 0.5, where the grid has gaps above 1
    s = zoo.make_grid_shift(1, 5, 4)
    t = build_table(s, s.sample(40, seed=3), 3)
    kernels = set()
    for n, eps in ((1, 2.0**-9), (3, 0.5)):
        w = t.greedy_net(np.arange(t.size)[::-1], n, eps)
        kernels.add(type(t._closeness(n, eps)))
        assert w.dtype == np.intp and w.ndim == 1 and len(w) > 1
        assert np.all(np.diff(w) > 0) and not w.flags.writeable
    assert kernels == {np.ndarray, list}
