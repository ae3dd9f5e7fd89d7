import math

import pytest

from meandim import system_zoo as zoo
from meandim.oracle import (
    enumerate_shift_pressure,
    exact_pressure,
    grid_count_log_pressure,
    grid_separated_count,
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


# ------------------------------------------------------------- transfer


def test_transfer_closed_form_example():
    # m=2, f=(0,1), n=2, k=1, eps=0.5: log(2 * (1 + 2)^2) = log 18
    val = transfer_pressure(2, [0.0, 1.0], n=2, k=1, eps=0.5)
    assert val == pytest.approx(math.log(18.0), abs=1e-12)


def test_transfer_zero_potential_counts_prefixes():
    # f = 0: the sup is the number of (n+k)-prefixes
    for n, k in [(2, 1), (3, 2), (4, 3)]:
        val = transfer_pressure(2, [0.0, 0.0], n=n, k=k, eps=2.0 ** (-k))
        assert val == pytest.approx((n + k) * math.log(2.0), abs=1e-12)


def test_transfer_single_letter_alphabet_rejected_bracket():
    with pytest.raises(ValueError, match="bracket"):
        transfer_pressure(2, [0.0, 1.0], n=2, k=2, eps=0.5)


def test_transfer_matches_enumeration_up_to_12():
    f = [0.0, 1.0]
    for n, k in [(1, 1), (2, 2), (3, 1), (4, 8), (6, 6), (9, 3)]:
        eps = 2.0 ** (-k)
        a = transfer_pressure(2, f, n, k, eps)
        b = enumerate_shift_pressure(2, f, n, k, eps)
        assert abs(a - b) <= 1e-10
    g = [0.2, -0.3, 0.5]
    for n, k in [(2, 1), (3, 3), (5, 2)]:
        eps = 0.6 * 2.0 ** (-k)  # inside the bracket, not on the edge
        a = transfer_pressure(3, g, n, k, eps)
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
            transfer_pressure(2, [0.0, 1.0], n, k, eps), abs=1e-10
        )


# ------------------------------------------------------------- grid counts


def test_grid_separated_count_17():
    from fractions import Fraction

    g = lambda q: grid_separated_count(17, Fraction(1, 2**q))
    assert [g(0), g(1), g(2), g(3), g(4)] == [2, 3, 5, 9, 17]


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
                grid_count_log_pressure(D, m, n, eps), abs=1e-10
            )


def test_grid_count_knows_the_word_length():
    # m=9, eps=1/8, n=1: gaps 1, 2, 4, 8 give 9, 5, 3, 2 classes
    assert grid_count_log_pressure(1, 9, 1, 0.125, L=3) == pytest.approx(math.log(135), abs=1e-12)
    for L in (None, 4, 12):
        assert grid_count_log_pressure(1, 9, 1, 0.125, L=L) == pytest.approx(
            math.log(270), abs=1e-12
        )


def test_grid_count_factorizes_over_axes():
    for n in (1, 2, 3):
        for eps in (0.25, 0.125):
            one = grid_count_log_pressure(1, 17, n, eps)
            two = grid_count_log_pressure(2, 17, n, eps)
            assert two == pytest.approx(2 * one, abs=1e-12)


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
