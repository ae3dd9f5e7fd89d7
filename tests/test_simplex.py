from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandim import simplex
from meandim.simplex import CertificateError, GameSolution, column_classes, solve_lp, solve_matrix_game


def test_lp_basic_max():
    # max x + y st x + 2y <= 4, 3x + y <= 6 -> x=8/5, y=6/5, value 14/5
    value, x, y = solve_lp([1, 1], [[1, 2], [3, 1]], [4, 6], [], [])
    assert value == Fraction(14, 5)
    assert x == [Fraction(8, 5), Fraction(6, 5)]
    # row duals: 4*(2/5) + 6*(1/5) = 14/5
    assert y == [Fraction(2, 5), Fraction(1, 5)]


def test_lp_with_equality():
    # max x st x + y = 1 -> x = 1
    value, x, y = solve_lp([1, 0], [], [], [[1, 1]], [1])
    assert value == 1
    assert y == []


def test_lp_infeasible():
    # x = 1 and x = 2
    with pytest.raises(ValueError, match="infeasible"):
        solve_lp([1], [], [], [[1], [1]], [1, 2])


@pytest.mark.parametrize("b_ub, b_eq", [([-1], []), ([1], [Fraction(-1, 3)])])
def test_lp_rejects_a_negative_right_hand_side(b_ub, b_eq):
    with pytest.raises(ValueError, match="right-hand side"):
        solve_lp([1], [[1]], b_ub, [[1]] * len(b_eq), b_eq)


def _lps(with_eq):
    """(c, <= rows, = rows), each row a (coefficients, right-hand side)
    pair: 1-4 variables, 0-4 <= rows and, with ``with_eq``, 1-2 = rows,
    small integer entries and right-hand sides >= 0, so ties, degenerate
    vertices, infeasible and unbounded LPs are common."""
    entry = st.integers(-3, 3)
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(entry, min_size=n, max_size=n),
            st.lists(st.tuples(st.lists(entry, min_size=n, max_size=n), st.integers(0, 4)), max_size=4),
            st.lists(st.tuples(st.lists(entry, min_size=n, max_size=n), st.integers(0, 2)),
                     min_size=int(with_eq), max_size=2 * int(with_eq)),
        )
    )


def _solve_or_none(c, ub, eq):
    a_ub, b_ub = [r for r, _ in ub], [b for _, b in ub]
    a_eq, b_eq = [r for r, _ in eq], [b for _, b in eq]
    try:
        return solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    except ValueError as exc:
        assert "infeasible" in str(exc) or "unbounded" in str(exc)
        return None


def _dot(u, v):
    return sum(Fraction(a) * b for a, b in zip(u, v))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lps(with_eq=False))
def test_lp_with_upper_rows_is_certified_by_its_duals(lp):
    c, ub, _ = lp
    solved = _solve_or_none(c, ub, [])
    if solved is None:
        return
    value, x, y = solved
    assert all(v >= 0 for v in x)
    assert all(_dot(row, x) <= b for row, b in ub)
    assert value == _dot(c, x)
    assert all(w >= 0 for w in y)
    for i, ci in enumerate(c):
        assert sum(row[i] * w for (row, _), w in zip(ub, y)) >= ci
    assert sum(b * w for (_, b), w in zip(ub, y)) == value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lps(with_eq=True))
def test_lp_with_equality_rows_is_feasible(lp):
    c, ub, eq = lp
    solved = _solve_or_none(c, ub, eq)
    if solved is None:
        return
    value, x, y = solved
    assert all(v >= 0 for v in x)
    assert all(_dot(row, x) <= b for row, b in ub)
    assert all(_dot(row, x) == b for row, b in eq)
    assert value == _dot(c, x)
    assert len(y) == len(ub)


def test_lp_unbounded():
    with pytest.raises(ValueError, match="unbounded"):
        solve_lp([1], [[-1]], [1], [], [])


def test_matching_pennies_value_zero():
    sol = solve_matrix_game([[1, -1], [-1, 1]])
    assert sol.value == 0
    assert sol.gap == 0
    assert sol.slack_residual == 0
    assert sol.p == (Fraction(1, 2), Fraction(1, 2))


def test_constant_row_game():
    sol = solve_matrix_game([[Fraction(7, 10)] * 3])
    assert sol.value == Fraction(7, 10)
    assert sol.gap == 0


def test_game_value_between_pure_strategies():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.uniform(-1, 1, size=(3, 4))
        sol = solve_matrix_game(A.tolist())
        v = float(sol.value)
        # value >= best pure column (delta measures are feasible)
        best_pure = max(min(A[j, i] for j in range(3)) for i in range(4))
        assert v >= best_pure - 1e-12
        # value <= best response to the dual mix
        assert sol.gap == 0
        assert sol.slack_residual == 0


def test_game_certificate_on_random_and_degenerate_games():
    # small integer ranges make ties, duplicate rows/columns and
    # degenerate vertices common
    rng = np.random.default_rng(17)
    for k in range(300):
        m, n, r = int(rng.integers(1, 5)), int(rng.integers(1, 7)), k % 3 + 1
        A = rng.integers(-r, r + 1, size=(m, n))
        if k % 4 == 0:
            A[:, 0] = A[:, -1]
        if k % 5 == 0:
            A[0] = A[-1]
        sol = solve_matrix_game(A.tolist())
        assert all(w >= 0 for w in sol.q) and sum(sol.q) == 1
        assert all(w >= 0 for w in sol.p) and sum(sol.p) == 1
        assert sol.gap == 0 and sol.slack_residual == 0
        # saddle point: p guarantees the value and q holds every point to it
        F = [[Fraction(int(v)) for v in row] for row in A]
        assert min(sum(w * a for w, a in zip(sol.p, row)) for row in F) == sol.value
        assert max(sum(w * F[j][i] for j, w in enumerate(sol.q)) for i in range(n)) == sol.value


def test_game_rejects_corrupted_dual_weights(monkeypatch):
    solve = simplex.solve_lp

    def corrupt(shift):
        def fake(*args):
            value, x, y = solve(*args)
            return value, x, [w + d for w, d in zip(y, shift)]

        return fake

    # q = (1/2, 1/2); the second game repeats the first's columns, one
    # copy given as floats and one entry as a Fraction
    games = [[[1, -1], [-1, 1]], [[1, -1, 1.0, -1, 1], [-1, 1, -1.0, 1, Fraction(-1)]]]
    for game in games:
        for shift, match in [((Fraction(1, 2), Fraction(-1, 2)), "gap"),
                             ((1, 0), "probability")]:
            monkeypatch.setattr(simplex, "solve_lp", corrupt(shift))
            with pytest.raises(CertificateError, match=match):
                solve_matrix_game(game)


def _uncollapsed_game(matrix) -> GameSolution:
    """Reference solve: one LP column per support point, duplicates included,
    and the certificate recomputed over every column."""
    A = [[Fraction(v) for v in row] for row in matrix]
    m, n = len(A), len(A[0])
    c = [Fraction(0)] * n + [Fraction(1), Fraction(-1)]
    a_ub = [[-A[j][i] for i in range(n)] + [Fraction(1), Fraction(-1)] for j in range(m)]
    a_eq = [[Fraction(1)] * n + [Fraction(0), Fraction(0)]]
    value, x, y = solve_lp(c, a_ub, [Fraction(0)] * m, a_eq, [Fraction(1)])
    p, q = tuple(x[:n]), tuple(y)
    cols = [sum(q[j] * A[j][i] for j in range(m)) for i in range(n)]
    dual_value = max(cols)
    worst = Fraction(0)
    for i in range(n):
        if p[i] > 0:
            worst = max(worst, abs(cols[i] - dual_value))
    for j in range(m):
        if q[j] > 0:
            worst = max(worst, abs(sum(p[i] * A[j][i] for i in range(n)) - value))
    return GameSolution(value, p, q, dual_value, worst)


def _games_with_duplicates(values):
    """(distinct columns, column order): 1-3 members, 1-4 base columns and
    2-9 support points that each copy a base column, so duplicates are
    forced in whenever there are more points than base columns."""
    return st.integers(1, 3).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda k: st.tuples(
                st.lists(st.lists(values, min_size=m, max_size=m), min_size=k, max_size=k),
                st.lists(st.integers(0, k - 1), min_size=2, max_size=9),
                st.lists(st.booleans(), min_size=9, max_size=9),
            )
        )
    )


def _assert_collapsed_equals_uncollapsed(case):
    base, order, as_fraction = case
    # a copy may come as Fractions: equal entries are one class whatever their type
    cols = [
        [Fraction(v) for v in base[b]] if as_fraction[i] else base[b]
        for i, b in enumerate(order)
    ]
    matrix = [list(row) for row in zip(*cols)]
    reps, labels = column_classes(matrix)
    assert len(reps) == len({tuple(base[b]) for b in order})
    assert [labels[i] for i in reps] == list(range(len(reps)))
    assert solve_matrix_game(matrix) == _uncollapsed_game(matrix)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_games_with_duplicates(st.integers(-2, 2)))
def test_collapsed_game_equals_uncollapsed_integer(case):
    _assert_collapsed_equals_uncollapsed(case)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_games_with_duplicates(st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)))
def test_collapsed_game_equals_uncollapsed_float(case):
    _assert_collapsed_equals_uncollapsed(case)



def test_game_monotone_in_rows():
    rng = np.random.default_rng(9)
    A = rng.uniform(-1, 1, size=(2, 4)).tolist()
    extra = rng.uniform(-1, 1, size=4).tolist()
    v1 = solve_matrix_game(A).value
    v2 = solve_matrix_game(A + [extra]).value
    assert v2 <= v1  # more rows, min over a larger set


def test_game_monotone_in_columns():
    rng = np.random.default_rng(11)
    A = rng.uniform(-1, 1, size=(3, 3))
    extra = rng.uniform(-1, 1, size=(3, 1))
    v1 = solve_matrix_game(A.tolist()).value
    v2 = solve_matrix_game(np.hstack([A, extra]).tolist()).value
    assert v2 >= v1  # more support, max over a larger simplex
