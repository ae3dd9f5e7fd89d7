"""Exact two-phase simplex over rationals, sized for desk-scale games.

The variational max-min reduces to a tiny matrix-game LP; solving it in
Fraction arithmetic (Bland's rule, so no cycling) makes the optimality
certificate exact.  The LP keeps only the rows a game gives it: <= rows
and = rows with right-hand sides >= 0.  One primal solve per game gives
both players' weights, and the duality gap recomputed from them is
literally zero rather than a solver tolerance.

Games are solved on column classes: columns whose entries are exactly
equal share one class, and only the first column of each class enters
the LP.  Under Bland's rule a duplicate column always has the same
reduced cost as its earlier representative, so it never enters first,
and the reduced LP repeats the full LP's pivots: p, q and the value are
the ones the full LP gives, with weight 0 on every duplicate.
``solve_prefix_games`` yields the solution of every column prefix of a
game from one held solution: it prices each class once, at its first
column, and solves again only when that column pays more than the value
under the member weights.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator


class CertificateError(RuntimeError):
    """The exact optimality certificate of a matrix game does not hold."""


def _to_fraction_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def solve_lp(c, a_ub, b_ub, a_eq, b_eq):
    """Maximize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Right-hand sides must be >= 0, as in the game LPs ``solve_matrix_game``
    builds.  All data may be ints, floats or Fractions; arithmetic is
    exact.  Returns (value, x, y) as Fractions, where y are the optimal
    duals of the a_ub rows.  Raises ValueError on a negative right-hand
    side and on infeasible or unbounded problems.

    The columns are x, one slack per a_ub row and one artificial per a_eq
    row.  Phase 2 scans only the x and slack columns, so no artificial
    enters again; one the drive-out leaves basic sits in a row that is 0
    in every other column, so it never leaves either.
    """
    c = [Fraction(v) for v in c]
    rows = _to_fraction_matrix(a_ub) + _to_fraction_matrix(a_eq)
    rhs = [Fraction(v) for v in b_ub] + [Fraction(v) for v in b_eq]
    if any(v < 0 for v in rhs):
        raise ValueError("LP right-hand sides must be >= 0")
    n, n_ub, m = len(c), len(a_ub), len(rows)
    width = n + m
    T = []
    for r in range(m):
        row = rows[r] + [Fraction(0)] * m + [rhs[r]]
        row[n + r] = Fraction(1)
        T.append(row)
    basis = list(range(n, width))

    def pivot(r, col):
        piv = T[r][col]
        T[r] = [v / piv for v in T[r]]
        for rr in range(m):
            if rr != r and T[rr][col] != 0:
                f = T[rr][col]
                T[rr] = [a - f * b for a, b in zip(T[rr], T[r])]
        basis[r] = col

    def run(obj, scan):
        # obj: full-width objective (maximize); returns the final row of
        # z_j = sum_r obj[basis[r]] * T[r][j], whose last entry is the value
        while True:
            z = [Fraction(0)] * (width + 1)
            for r in range(m):
                cb = obj[basis[r]]
                if cb != 0:
                    for j in range(width + 1):
                        z[j] += cb * T[r][j]
            entering = -1
            for j in range(scan):
                if z[j] - obj[j] < 0:  # improving column (Bland: first)
                    entering = j
                    break
            if entering < 0:
                return z
            leaving, best = -1, None
            for r in range(m):
                if T[r][entering] > 0:
                    ratio = T[r][width] / T[r][entering]
                    if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leaving]
                    ):
                        best, leaving = ratio, r
            if leaving < 0:
                raise ValueError("LP is unbounded")
            pivot(leaving, entering)

    kept = n + n_ub  # the x and slack columns
    if m > n_ub:
        obj1 = [Fraction(0)] * kept + [Fraction(-1)] * (m - n_ub) + [Fraction(0)]
        if run(obj1, width)[width] != 0:
            raise ValueError("LP is infeasible")
        # drive leftover artificials out of the basis where possible
        for r in range(m):
            if basis[r] >= kept:
                for j in range(kept):
                    if T[r][j] != 0:
                        pivot(r, j)
                        break

    z = run(c + [Fraction(0)] * (m + 1), kept)
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r][width]
    # a_ub row r owns slack column n + r; its dual is that zero-cost
    # column's reduced cost
    return z[width], x, z[n:kept]


@dataclass(frozen=True)
class GameSolution:
    """Exact solution of max_p min_j sum_i p_i A[j, i] over the simplex.

    ``dual_value`` is the best column's pay under q, and the duality gap
    is read off it and ``value``.
    """

    value: Fraction
    p: tuple  # row-player weights (Fractions, sum 1)
    q: tuple  # column-player (member) weights: the primal's row duals
    dual_value: Fraction
    slack_residual: Fraction  # worst complementary-slackness violation

    @property
    def gap(self) -> Fraction:
        return abs(self.value - self.dual_value)


def _check_certificate(sol: GameSolution):
    if any(w < 0 for w in sol.q) or sum(sol.q) != 1:
        raise CertificateError(f"dual weights {sol.q} are not a probability vector")
    if sol.gap != 0 or sol.slack_residual != 0:
        raise CertificateError(f"duality gap {sol.gap}, slack residual {sol.slack_residual}")


def column_classes(matrix):
    """Classes of exactly equal columns of ``matrix``: (reps, labels).

    ``labels[i]`` is the class of column i and ``reps[c]`` the first column
    of class c, so classes are numbered in ascending order of their
    representatives.  Entries are compared as given: Python's numeric
    equality and hashing are exact across int, float and Fraction.
    """
    first, reps, labels = {}, [], []
    for i, col in enumerate(zip(*matrix)):
        c = first.setdefault(col, len(reps))
        if c == len(reps):
            reps.append(i)
        labels.append(c)
    return reps, labels


def solve_matrix_game(matrix) -> GameSolution:
    """Solve the max-min weight game exactly and certify it by duality.

    matrix[j][i]: value of member j at support point i.  One LP over
    weights p on the column classes (see ``column_classes``) also yields,
    as its row duals, weights q over members; p is written back onto each
    class's first column and is 0 on every other column.  The duality gap
    and complementary-slackness residual are recomputed from (p, q) over
    the classes, whose column maximum is the maximum over all columns, and
    must be exactly 0; otherwise, or when q is not a probability vector,
    CertificateError is raised.
    """
    if len(matrix) == 0:
        raise ValueError("empty game matrix")
    reps, _ = column_classes(matrix)
    A = [[Fraction(row[i]) for i in reps] for row in matrix]
    m, n = len(A), len(reps)

    # primal: max t, p in simplex, sum_i A[j,i] p_i >= t for all j
    c = [Fraction(0)] * n + [Fraction(1), Fraction(-1)]
    a_ub = [[-A[j][i] for i in range(n)] + [Fraction(1), Fraction(-1)] for j in range(m)]
    b_ub = [Fraction(0)] * m
    a_eq = [[Fraction(1)] * n + [Fraction(0), Fraction(0)]]
    b_eq = [Fraction(1)]
    value, x, y = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    q = tuple(y)

    # the certificate is recomputed from (p, q, A) alone
    cols = [sum(q[j] * A[j][i] for j in range(m)) for i in range(n)]
    dual_value = max(cols)
    worst = Fraction(0)
    for i in range(n):
        if x[i] > 0:
            worst = max(worst, abs(cols[i] - dual_value))
    for j in range(m):
        if q[j] > 0:
            row = sum(x[i] * A[j][i] for i in range(n))
            worst = max(worst, abs(row - value))
    p = [Fraction(0)] * len(matrix[0])
    for i, w in zip(reps, x):
        p[i] = w
    sol = GameSolution(value=value, p=tuple(p), q=q, dual_value=dual_value, slack_residual=worst)
    _check_certificate(sol)
    return sol


def solve_prefix_games(matrix) -> Iterator[GameSolution]:
    """Yield the exact solutions of the games on columns [:k] of ``matrix``, k = 1..n.

    One solution is held and yielded unchanged until a class enters.  The
    first column is solved cold; the first column of each later class is
    priced under the held member weights q, and only one that pays more
    than the value enters: its prefix game is solved cold, and the new
    solution's certificate is checked before it is adopted.  A repeated
    column pays what its class's first column paid, so it is not priced.
    Every value is the exact optimum of its prefix, as ``solve_matrix_game``
    gives it.  A solution's p covers columns [:len(p)], the prefix it was
    solved on; the later columns of a longer prefix have weight 0.
    """
    if len(matrix) == 0 or len(matrix[0]) == 0:
        raise ValueError("empty game matrix")
    reps, _ = column_classes(matrix)
    sol = None
    for i, end in zip(reps, reps[1:] + [len(matrix[0])]):
        if sol is None or sum(w * Fraction(row[i]) for w, row in zip(sol.q, matrix)) > sol.value:
            sol = solve_matrix_game([row[: i + 1] for row in matrix])
            _check_certificate(sol)
        yield from repeat(sol, end - i)
