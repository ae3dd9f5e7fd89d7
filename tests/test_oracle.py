import math
from fractions import Fraction

import numpy as np
import pytest

from meandim import system_zoo as zoo
from meandim.oracle import (
    enumerate_shift_pressure,
    exact_pressure,
    grid_count_log_pressure,
    lattice_log_pressure,
    simplex_grid_maxmin,
    transfer_pressure,
)
from meandim.orbit_engine import build_table
from meandim.pressure import greedy_separated, spanning_from_separated
from meandim.system_zoo import constant_potential, make_finite_system, make_full_shift


def test_one_point_exact_pressure(one_point):
    f = constant_potential(0.4)
    t = build_table(one_point, one_point.points, 3, [f])
    ep = exact_pressure(t, f, 2, 0.5)
    expected = 2 * 0.4 * math.log(2.0)
    assert ep.exact_log_p == pytest.approx(expected, abs=1e-12)
    assert ep.exact_log_q == pytest.approx(expected, abs=1e-12)
    assert ep.argmax_separated == (0,)
    assert ep.argmin_spanning == (0,)


def test_two_points_close_pair():
    # d = 0.5 < eps = 0.6: only singletons are separated, one ball spans
    s = make_finite_system([[0.0, 0.5], [0.5, 0.0]], [0, 1])
    f = constant_potential(0.0)
    t = build_table(s, s.points, 2, [f])
    ep = exact_pressure(t, f, 1, 0.6)
    assert ep.exact_log_p == pytest.approx(0.0, abs=1e-12)  # count 1
    assert ep.exact_log_q == pytest.approx(0.0, abs=1e-12)
    assert len(ep.argmax_separated) == 1
    assert len(ep.argmin_spanning) == 1


def test_greedy_bounds_bracket_exact_on_seeded_instance():
    s = zoo.random_finite_system(5, seed=21, low=0.1, high=1.0)
    f = zoo.random_table_potential(s, seed=22)
    t = build_table(s, s.points, 3, [f])
    for n in (1, 2, 3):
        for eps in (0.2, 0.4, 0.6):
            ep = exact_pressure(t, f, n, eps)
            lo = greedy_separated(t, f, n, eps)
            hi = spanning_from_separated(t, f, n, eps)
            assert ep.exact_log_q <= ep.exact_log_p + 1e-12
            assert lo.log_value <= ep.exact_log_p + 1e-12
            assert hi.log_value >= ep.exact_log_q - 1e-12


# ------------------------------------------------------------- lattice pressure


def test_transfer_closed_form_example():
    # m=2, f=(0,1), n=2, eps=0.5: log(2 * (1 + 2)^2) = log 18
    val = lattice_log_pressure(2, 2, 1, 2, 0.5, [0.0, 1.0])
    assert val == pytest.approx(math.log(18.0), abs=1e-12)


def test_transfer_zero_potential_counts_prefixes():
    # f = 0 on the full shift: the sup is the number of (n+k)-prefixes
    for n, k in [(2, 1), (3, 2), (4, 3)]:
        val = lattice_log_pressure(2, 2, 1, n, 2.0 ** (-k), [0.0, 0.0])
        assert val == pytest.approx((n + k) * math.log(2.0), abs=1e-12)


def test_transfer_matches_enumeration_up_to_12():
    f = [0.0, 1.0]
    for n, k in [(1, 1), (2, 2), (3, 1), (4, 8), (6, 6), (9, 3)]:
        eps = 2.0 ** (-k)
        a = lattice_log_pressure(2, 2, 1, n, eps, f)
        b = enumerate_shift_pressure(2, f, n, k, eps)
        assert abs(a - b) <= 1e-10
    g = [0.2, -0.3, 0.5]
    for n, k in [(2, 1), (3, 3), (5, 2)]:
        eps = 0.6 * 2.0 ** (-k)  # inside the bracket, not on the edge
        a = lattice_log_pressure(2, 3, 1, n, eps, g)
        b = enumerate_shift_pressure(3, g, n, k, eps)
        assert abs(a - b) <= 1e-10


def test_transfer_matches_exact_pressure_on_exhaustive_sample():
    # all 16 words of length 4; subset enumeration is exact there
    s = make_full_shift(2, 4)
    f = zoo.first_coord_potential(s)
    pts = zoo.enumerate_words(2, 4)
    t = build_table(s, pts, 3, [f])
    for n, k in [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)]:
        eps = 2.0 ** (-k)
        ep = exact_pressure(t, f, n, eps)
        assert ep.exact_log_p == pytest.approx(
            lattice_log_pressure(2, 2, 1, n, eps, [0.0, 1.0], L=4), abs=1e-10
        )


def test_grid_separated_count_17():
    # n = 1, L = 1: points a/16 pairwise >= 2^-q apart
    g = lambda q: lattice_log_pressure(17, 17, 1, 1, 2.0**-q, np.zeros(17), L=1)
    assert [round(math.exp(g(q))) for q in range(5)] == [2, 3, 5, 9, 17]


def test_grid_count_log_pressure_matches_greedy_on_exhaustive_m3():
    # m=3 grid (letters 0, 1/2, 1), exhaustive words long enough to hold
    # every contributing position (s <= n-1+q): the sample-restricted
    # greedy count is then the true count
    D, m, L = 1, 3, 5
    g = zoo.make_grid_shift(D, m, L)
    pts = zoo.enumerate_words(m, L, D)
    f = zoo.zero_potential()
    t = build_table(g, pts, 3, [f])
    for n in (1, 2, 3):
        for eps in (0.5, 0.25):
            lo = greedy_separated(t, f, n, eps)
            assert lo.log_value == pytest.approx(
                lattice_log_pressure(m, m, D, n, eps, np.zeros(m)), abs=1e-10
            )


def test_grid_count_knows_the_word_length():
    # m=9, eps=1/8, n=1: gaps 1, 2, 4, 8 give 9, 5, 3, 2 classes
    count = lambda L: lattice_log_pressure(9, 9, 1, 1, 0.125, np.zeros(9), L)
    assert count(3) == pytest.approx(math.log(135), abs=1e-12)
    for L in (None, 4, 12):
        assert count(L) == pytest.approx(math.log(270), abs=1e-12)


def test_grid_count_factorizes_over_axes():
    for n in (1, 2, 3):
        for eps in (0.25, 0.125):
            one = lattice_log_pressure(17, 17, 1, n, eps, np.zeros(17))
            two = lattice_log_pressure(17, 17, 2, n, eps, np.zeros(17))
            assert two == pytest.approx(2 * one, abs=1e-12)


def test_lattice_rejects_eps_outside_the_unit_interval_and_one_level():
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="eps"):
            lattice_log_pressure(3, 3, 1, 1, eps, np.zeros(3))
    with pytest.raises(ValueError, match="m >= 2"):
        lattice_log_pressure(1, 1, 1, 1, 0.5, np.zeros(1))


def test_gate_names_are_one_lattice_call():
    # the benchmark's estimate-shift and estimate-grid gates read these names
    for n, k, eps in [(1, 1, 0.5), (3, 2, 0.2), (4, 6, 2.0**-6)]:
        for m, f in [(2, [0.0, 1.0]), (3, [0.2, -0.3, 0.5])]:
            assert transfer_pressure(m, f, n, k, eps) == lattice_log_pressure(2, m, 1, n, eps, f)
    with pytest.raises(ValueError, match="bracket"):
        transfer_pressure(2, [0.0, 1.0], n=2, k=2, eps=0.5)
    for D, m, n, eps, L in [(1, 9, 1, 0.125, 3), (2, 9, 2, 0.05, None), (3, 5, 3, 0.3, 6)]:
        assert grid_count_log_pressure(D, m, n, eps, L) == lattice_log_pressure(
            m, m, D, n, eps, np.zeros(m), L
        )


SMALL_EPS = (0.9, 0.6, 0.5, 0.4, 1 / 3, 0.25, 0.2)  # on and off grid multiples
LEAD = [(1.0, 0.0), (-1.0, 2.0), (0.5, 1.0)]  # first_coord (scale, offset)


def _grid_cases(D, m, L):
    """(table, potential, letter values) over every word of a small grid."""
    g = zoo.make_grid_shift(D, m, L)
    words = zoo.enumerate_words(m, L, D)
    for scale, offset in LEAD:
        f = zoo.first_coord_potential(g, scale, offset)
        yield build_table(g, words, L - 1, [f]), f, f.array(np.arange(m) / (m - 1))


@pytest.mark.parametrize("D,m,L", [(1, 3, 2), (1, 4, 2), (2, 2, 2)])
def test_lattice_matches_exact_pressure_on_grids_of_16_words(D, m, L):
    for t, f, letters in _grid_cases(D, m, L):
        for eps in SMALL_EPS:
            exact = exact_pressure(t, f, 1, eps).exact_log_p
            assert lattice_log_pressure(m, m, D, 1, eps, letters, L) == pytest.approx(
                exact, abs=1e-12
            )


def _close_masks(words, levels, n, eps):
    """Bitmask of the words (n, eps)-close to each word, read off the
    metric: d_n is the max over positions s and axes of
    |x_s - y_s| 2^-max(s-n+1, 0) / (levels - 1), compared in integers."""
    L = words.shape[1]
    scale = np.array([2 ** (L - max(s - n + 1, 0)) for s in range(L)])
    w = words.astype(np.int64)
    dist = (np.abs(w[:, None] - w[None, :]).max(axis=3) * scale).max(axis=2).tolist()
    bound = Fraction(eps) * (levels - 1) * 2**L  # dist < bound is d_n < eps
    return [sum(1 << j for j, d in enumerate(row) if d < bound) for row in dist]


def _max_weight_independent(weights, close) -> float:
    """Max total weight of pairwise non-close points, by branch and bound.

    Points go in by descending weight; the bound is a greedy cover of the
    candidates by cliques, each worth its heaviest point.  A branch whose
    bound is within 1e-13 of the best (relative) is pruned, so tied
    weights summed in another order do not reopen it.
    """
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    w = [weights[i] for i in order]
    adj = [sum(1 << k for k, j in enumerate(order) if close[v] >> j & 1) for v in order]
    best = 0.0

    def bound(cand):
        total = 0.0
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique, rest = 1 << v, cand & adj[v] & ~(1 << v)
            while rest:
                u = (rest & -rest).bit_length() - 1
                clique |= 1 << u
                rest &= adj[u] & ~(1 << u)
            total += w[v]
            cand &= ~clique
        return total

    def search(cand, acc):
        nonlocal best
        if not cand:
            best = max(best, acc)
        elif acc + bound(cand) > best * (1 + 1e-13):
            v = (cand & -cand).bit_length() - 1
            search(cand & ~adj[v] & ~(1 << v), acc + w[v])
            search(cand & ~(1 << v), acc)

    search((1 << len(w)) - 1, 0.0)
    return best


def test_max_weight_independent_search_on_a_path():
    # the path 0 - 1 - 2 - 3, each point close to itself and its neighbours
    close = [0b0011, 0b0111, 0b1110, 0b1100]
    assert _max_weight_independent([1.0, 3.0, 2.0, 2.5], close) == 5.5
    assert _max_weight_independent([3.0, 1.0, 1.0, 3.0], close) == 6.0


@pytest.mark.parametrize(
    "D,m,L", [(1, 3, 3), (1, 4, 3), (1, 5, 2), (1, 6, 2), (1, 3, 4), (1, 9, 2), (2, 3, 2), (2, 2, 3)]
)
def test_lattice_is_the_max_weight_independent_set_of_tiny_grids(D, m, L):
    # every word of a grid of at most 81 words, first_coord potentials
    words = zoo.enumerate_words(m, L, D)
    for t, f, letters in _grid_cases(D, m, L):
        for n in range(1, L):
            for eps in SMALL_EPS:
                lw = t.birkhoff(f)[:, n] * math.log(1.0 / eps)
                top = float(lw.max())
                best = _max_weight_independent(np.exp(lw - top).tolist(),
                                               _close_masks(words, m, n, eps))
                exact = lattice_log_pressure(m, m, D, n, eps, letters, L)
                assert exact == pytest.approx(top + math.log(best), abs=1e-12)
                assert greedy_separated(t, f, n, eps).log_value <= exact + 1e-12


# ------------------------------------------------------------- simplex grid


def test_simplex_grid_singleton_rows_exact():
    rows = [[0.7, 0.7, 0.7]]
    assert simplex_grid_maxmin(rows, 50) == pytest.approx(0.7, abs=1e-12)


def test_simplex_grid_single_support_point():
    rows = [[0.3], [0.9]]
    assert simplex_grid_maxmin(rows, 10) == pytest.approx(0.3, abs=1e-12)


def test_simplex_grid_matching_pennies_value():
    # classic 2x2 game with value 0 at p = (1/2, 1/2)
    rows = [[1.0, -1.0], [-1.0, 1.0]]
    val = simplex_grid_maxmin(rows, 200)
    assert val == pytest.approx(0.0, abs=1e-12)
