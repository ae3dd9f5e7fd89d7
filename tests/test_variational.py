import dataclasses
import importlib.util
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandim import simplex, variational
from meandim import system_zoo as zoo
from meandim.cli import main as cli_main
from meandim.config import build_potential, build_sample, build_system, validate_config
from meandim.mmdim import estimate_mmdim
from meandim.oracle import exact_pressure, lattice_log_pressure, simplex_grid_maxmin
from meandim.orbit_engine import OrbitTable, build_table
from meandim.simplex import CertificateError, solve_matrix_game, solve_prefix_games
from meandim.system_zoo import constant_potential, enumerate_words, make_full_shift
from meandim.variational import (
    BracketError,
    Dictionary,
    FinMeasure,
    MemberRejectedError,
    bowen_root,
    bowen_root_consistency,
    equilibrium_candidates,
    make_dict_member,
    maxmin_variational,
    measure_dimension,
    tangent_check,
)

EPS3 = [0.5, 0.35, 0.2]
NR3 = [1, 2, 3]


def _member(t, f, **kw):
    return make_dict_member(t, f, EPS3, NR3, **kw)


# ------------------------------------------------------------- FinMeasure


def test_fin_measure_validation():
    FinMeasure((0, 2), (0.5, 0.5))
    with pytest.raises(ValueError):
        FinMeasure((0, 0), (0.5, 0.5))
    with pytest.raises(ValueError):
        FinMeasure((0, 1), (0.6, 0.6))
    with pytest.raises(ValueError):
        FinMeasure((0, 1), (-0.1, 1.1))


# ------------------------------------------------------------- dictionary


def test_one_point_member_certificate_zero(one_point):
    f = constant_potential(0.8)
    t = build_table(one_point, one_point.points, 3, [f])
    m = _member(t, f)
    assert m.m_hat == pytest.approx(0.8, abs=1e-12)
    assert t.point_values(m.g, [0])[0] == pytest.approx(0.0, abs=1e-12)
    assert m.certificate.upper_proxy == pytest.approx(0.0, abs=1e-12)


def test_full_shift_member_certificate_small():
    s = make_full_shift(2, 11)
    f = zoo.first_coord_potential(s)
    t = build_table(s, enumerate_words(2, 11), 3, [f])
    m = make_dict_member(t, f, [2.0**-6, 2.0**-7, 2.0**-8], NR3)
    # transfer oracle: proxy = max_k log(1 + 2^k) / (k log 2)
    expected = max(
        math.log(1 + 2.0**k) / (k * math.log(2.0)) for k in (6, 7, 8)
    )
    assert m.m_hat == pytest.approx(expected, abs=1e-9)
    assert abs(m.certificate.upper_proxy) < 0.02


def _registering_birkhoff(self, f):
    """``OrbitTable.birkhoff`` that registers every potential it reads."""
    self.ensure_potential(f)
    return self._birkhoff[f]


def test_member_frees_its_certificate_table(monkeypatch):
    s = make_full_shift(2, 7)
    f = zoo.first_coord_potential(s)
    t = build_table(s, enumerate_words(2, 7), 3, [f])
    eps_list = [2.0**-3, 2.0**-4, 2.0**-5]
    before = len(t._birkhoff)
    m = make_dict_member(t, f, eps_list, NR3)
    assert len(t._birkhoff) == before
    # keeping the certificate table changes no value (repr is bitwise for floats)
    monkeypatch.setattr(OrbitTable, "birkhoff", _registering_birkhoff)
    kept = make_dict_member(t, f, eps_list, NR3)
    assert len(t._birkhoff) == before + 1
    assert repr(kept.certificate) == repr(m.certificate)
    assert kept.m_hat == m.m_hat


def test_member_rejection_on_tight_tolerance(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=12)
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    # estimator error on the shift identity is ~1e-15, so this passes
    _member(t, f, tau_a=1e-9)
    # an unsatisfiable tolerance must reject with diagnostics
    with pytest.raises(MemberRejectedError, match="diagnostics"):
        _member(t, f, tau_a=-1.0)


def test_member_source_prices_f_and_f_minus_m_hat(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=12)
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    seen = []

    def exact(h, n, eps):
        seen.append(h)
        return exact_pressure(t, h, n, eps).exact_log_p

    m = _member(t, f, log_pressure=exact)
    calls = len(EPS3) * len(NR3)
    assert len(seen) == 2 * calls and all(h is f for h in seen[:calls])
    neg_g = seen[calls]
    assert all(h is neg_g for h in seen[calls:])
    values = t.point_values(f, range(6))
    assert t.point_values(neg_g, range(6)).tolist() == (values - m.m_hat).tolist()
    # the certificate is the source's estimate of f - m_hat itself
    assert m.m_hat == estimate_mmdim(t, f, EPS3, NR3, log_pressure=exact).upper_proxy
    assert repr(m.certificate) == repr(estimate_mmdim(t, neg_g, EPS3, NR3, log_pressure=exact))


def _grid_source(h, n, eps):
    # the exact source of the grid D=1, m=5: h read at the letters a/4
    return lattice_log_pressure(5, 5, 1, n, eps, h.array(np.arange(5) / 4))


def test_member_on_an_exact_source_needs_no_table():
    f = zoo.first_coord_potential(zoo.make_grid_shift(1, 5, 6), offset=1.0)
    m = make_dict_member(None, f, EPS3, NR3, log_pressure=_grid_source)
    assert m.m_hat == estimate_mmdim(None, f, EPS3, NR3, log_pressure=_grid_source).upper_proxy
    assert abs(m.certificate.upper_proxy) <= variational.TAU_A


def test_zero_source_member_reproduces_system_estimate(seeded_six):
    z = zoo.table_potential(seeded_six, [0.0] * 6, name="zero")
    t = build_table(seeded_six, seeded_six.points, 3, [z])
    m = _member(t, z)
    est = estimate_mmdim(t, z, EPS3, NR3)
    assert m.m_hat == est.upper_proxy
    for v in t.point_values(m.g, range(6)):
        assert v == pytest.approx(m.m_hat, abs=1e-15)


# ------------------------------------------------------------- measure_dimension


def test_measure_dimension_one_point_dict(one_point):
    f = constant_potential(1.1)
    t = build_table(one_point, one_point.points, 3, [f])
    d = Dictionary((_member(t, f),))
    mu = FinMeasure((0,), (1.0,))
    assert measure_dimension(d, mu, t) == pytest.approx(0.0, abs=1e-12)


def test_measure_dimension_singleton_formula(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=13)
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    m = _member(t, f)
    d = Dictionary((m,))
    mu = FinMeasure(tuple(range(6)), tuple([1 / 6] * 6))
    expected = m.m_hat - mu.integrate(f, t)
    assert measure_dimension(d, mu, t) == pytest.approx(expected, abs=1e-12)


def test_measure_dimension_brute_force_min(seeded_six):
    fs = [zoo.random_table_potential(seeded_six, seed=20 + i) for i in range(3)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    d = Dictionary(tuple(_member(t, f) for f in fs))
    mu = FinMeasure(tuple(range(6)), tuple([1 / 6] * 6))
    direct = min(
        sum(w * v for v, w in zip(t.point_values(m.g, mu.support), mu.weights))
        for m in d.members
    )
    assert measure_dimension(d, mu, t) == pytest.approx(direct, abs=1e-12)


def test_measure_dimension_concave_and_member_monotone(seeded_six):
    fs = [zoo.random_table_potential(seeded_six, seed=30 + i) for i in range(3)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    members = [_member(t, f) for f in fs]
    d2 = Dictionary(tuple(members[:2]))
    d3 = Dictionary(tuple(members))
    rng = np.random.default_rng(0)
    for _ in range(25):
        w1 = rng.dirichlet(np.ones(6))
        w2 = rng.dirichlet(np.ones(6))
        lam = float(rng.uniform())
        mu1 = FinMeasure(tuple(range(6)), tuple(w1))
        mu2 = FinMeasure(tuple(range(6)), tuple(w2))
        mix = FinMeasure(tuple(range(6)), tuple(lam * w1 + (1 - lam) * w2))
        lhs = measure_dimension(d2, mix, t)
        rhs = lam * measure_dimension(d2, mu1, t) + (1 - lam) * measure_dimension(
            d2, mu2, t
        )
        assert lhs >= rhs - 1e-12  # concavity: min of linear functionals
        assert measure_dimension(d3, mix, t) <= lhs + 1e-15  # monotone in members


def test_measure_dimension_lipschitz_in_weights(seeded_six):
    fs = [zoo.random_table_potential(seeded_six, seed=40 + i) for i in range(2)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    d = Dictionary(tuple(_member(t, f) for f in fs))
    bound = max(
        max(np.abs(t.point_values(m.g, range(6)))) for m in d.members
    )
    rng = np.random.default_rng(1)
    for _ in range(25):
        w1 = rng.dirichlet(np.ones(6))
        w2 = rng.dirichlet(np.ones(6))
        mu1 = FinMeasure(tuple(range(6)), tuple(w1))
        mu2 = FinMeasure(tuple(range(6)), tuple(w2))
        gap = abs(measure_dimension(d, mu1, t) - measure_dimension(d, mu2, t))
        tv = float(np.sum(np.abs(w1 - w2)))
        assert gap <= bound * tv + 1e-12


# ------------------------------------------------------------- maxmin


def test_singleton_dict_value_is_m_hat_any_support(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=50)
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    m = _member(t, f)
    d = Dictionary((m,))
    for support in ([0], [1, 4], list(range(6))):
        res = maxmin_variational(d, f, t, support)
        assert res.value == pytest.approx(m.m_hat, abs=1e-12)
        assert res.solution.gap == 0
        assert res.solution.slack_residual == 0


def test_one_point_maxmin_value_is_f(one_point):
    f = constant_potential(0.45)
    t = build_table(one_point, one_point.points, 3, [f])
    d = Dictionary((_member(t, f),))
    res = maxmin_variational(d, f, t, [0])
    assert res.value == pytest.approx(0.45, abs=1e-12)


def test_maxmin_matches_simplex_grid(seeded_six):
    fs = [zoo.random_table_potential(seeded_six, seed=60 + i) for i in range(3)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    d = Dictionary(tuple(_member(t, f) for f in fs))
    f = fs[0]
    support = [0, 2, 5]
    res = maxmin_variational(d, f, t, support)
    rows = [
        t.point_values(m.g, support) + t.point_values(f, support)
        for m in d.members
    ]
    grid = simplex_grid_maxmin(rows, 200)
    assert grid <= res.value + 1e-12
    assert abs(res.value - grid) <= 1e-3
    # the solved game's own matrix gives the same grid value
    assert simplex_grid_maxmin(res.matrix, 200) == grid


def test_maxmin_full_support_matches_grid(seeded_six):
    # six-point support at a coarser resolution (~1e5 grid points)
    fs = [zoo.random_table_potential(seeded_six, seed=65 + i) for i in range(3)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    d = Dictionary(tuple(_member(t, f) for f in fs))
    res = maxmin_variational(d, fs[0], t, list(range(6)))
    grid = simplex_grid_maxmin(res.matrix, 22)
    assert grid <= res.value + 1e-12
    assert abs(res.value - grid) <= 5e-2  # resolution-limited bound


def test_maxmin_monotone_in_dictionary_and_support(seeded_six):
    fs = [zoo.random_table_potential(seeded_six, seed=70 + i) for i in range(4)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    members = [_member(t, f) for f in fs]
    f = fs[0]
    support = list(range(6))
    values = []
    for k in range(1, 5):
        res = maxmin_variational(Dictionary(tuple(members[:k])), f, t, support)
        values.append(res.value)
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    # support growth: value nondecreasing
    d = Dictionary(tuple(members))
    v_small = maxmin_variational(d, f, t, [0, 1]).value
    v_big = maxmin_variational(d, f, t, list(range(6))).value
    assert v_big >= v_small - 1e-15


def test_maxmin_value_le_m_hat_with_gap_member(seeded_six):
    fs = [zoo.random_table_potential(seeded_six, seed=80 + i) for i in range(3)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    members = [_member(t, f) for f in fs]
    f = fs[0]
    res = maxmin_variational(Dictionary(tuple(members)), f, t, list(range(6)))
    assert res.value <= members[0].m_hat + 1e-12


# ------------------------------------------------------------- support growth


def _games(values):
    """Game matrices of 1-3 members and 1-7 support points."""
    return st.integers(1, 3).flatmap(
        lambda m: st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.lists(values, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def _padded(sol, k):
    """The held solution's p over a prefix of k columns."""
    assert len(sol.p) <= k
    return sol.p + (Fraction(0),) * (k - len(sol.p))


def _assert_prefix_solutions(matrix):
    A = [[Fraction(v) for v in row] for row in matrix]
    with mock.patch.object(simplex, "solve_matrix_game", wraps=solve_matrix_game) as solved:
        sweep = list(solve_prefix_games(matrix))
    # one cold solve for the first column and one per class that enters
    widths = [len(call.args[0][0]) for call in solved.call_args_list]
    reps = simplex.column_classes(matrix)[0]
    assert widths[0] == 1 and all(w - 1 in reps for w in widths)
    assert len(widths) <= len(reps)
    assert len(sweep) == len(A[0])
    for k, sol in enumerate(sweep, start=1):
        prefix = [row[:k] for row in A]
        assert sol.value == solve_matrix_game(prefix).value
        assert sol.gap == 0 and sol.slack_residual == 0
        # the held certificate holds on the prefix itself: p (0 on the
        # columns after its own prefix) and q are probability vectors that
        # both attain the value
        p = _padded(sol, k)
        assert len(sol.p) == max(w for w in widths if w <= k)
        assert min(p) >= 0 and sum(p) == 1
        assert min(sol.q) >= 0 and sum(sol.q) == 1
        rows = [sum(w * a for w, a in zip(p, row)) for row in prefix]
        cols = [sum(w * row[i] for w, row in zip(sol.q, prefix)) for i in range(k)]
        assert min(rows) == sol.value == max(cols) == sol.dual_value


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_games(st.integers(-2, 2)))
def test_prefix_games_match_cold_solves_integer(matrix):
    # few distinct entries: many ties, repeated and dominated columns
    _assert_prefix_solutions(matrix)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_games(st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)))
def test_prefix_games_match_cold_solves_float(matrix):
    _assert_prefix_solutions(matrix)


def test_entering_point_triggers_one_cold_solve(monkeypatch):
    widths = []

    def counting(matrix):
        widths.append(len(matrix[0]))
        return solve_matrix_game(matrix)

    monkeypatch.setattr(simplex, "solve_matrix_game", counting)
    # value 0 on [:1]; point 2 pays 1 > 0 and enters; point 3 pays 1 = value
    sweep = solve_prefix_games([[0, 1, 1]])
    assert [sol.value for sol in sweep] == [0, 1, 1]
    assert widths == [1, 2]
    # two members: point 2 pays 1/2 under q = (1/2, 1/2) and enters,
    # point 3 pays 1 > 1/2 under the new q and enters too, point 4 does not
    widths.clear()
    sweep = solve_prefix_games([[1, 0, 1, 0], [0, 1, 1, 0]])
    assert [sol.value for sol in sweep] == [0, Fraction(1, 2), 1, 1]
    assert widths == [1, 2, 3]


class _Unpriced(float):
    """A float entry that fails when it is converted, i.e. priced or solved."""

    def as_integer_ratio(self):
        raise AssertionError("a repeated column was priced")


def test_repeated_columns_are_carried_without_pricing(monkeypatch):
    widths = []

    def counting(matrix):
        widths.append(len(matrix[0]))
        return solve_matrix_game(matrix)

    monkeypatch.setattr(simplex, "solve_matrix_game", counting)
    # every later column repeats the first, so it is neither priced nor
    # solved, and the held solution is the cold solve of each prefix; the
    # first member's repeated entries fail if they are ever converted
    u = _Unpriced
    cases = [
        ([[1, u(1), u(1), u(1)], [Fraction(1, 3)] * 4, [0.5, 0.5, Fraction(1, 2), 0.5]], [1]),
        # two classes in turn: the second enters at its first column
        ([[1, 0, u(1), u(0), u(1), u(0)], [0, 1, u(0), u(1), u(0), u(1)]], [1, 2]),
    ]
    for matrix, solved in cases:
        widths.clear()
        sweep = list(solve_prefix_games(matrix))
        assert widths == solved
        for k, sol in enumerate(sweep, start=1):
            cold = solve_matrix_game([row[:k] for row in matrix])
            assert (sol.value, sol.q, _padded(sol, k)) == (cold.value, cold.q, cold.p)


def test_sweep_holds_one_solution_between_cold_solves(monkeypatch):
    solved = []

    def recording(matrix):
        solved.append(solve_matrix_game(matrix))
        return solved[-1]

    monkeypatch.setattr(simplex, "solve_matrix_game", recording)
    # (0, 1) enters at column 2; the repeats and the new class (0, 0), which
    # pays 0 < 1/2 under q, keep the held solution
    matrix = [[1, 0, 1, 0, 0, 1], [0, 1, 0, 1, 0, 0]]
    sweep = list(solve_prefix_games(matrix))
    assert [len(sol.p) for sol in solved] == [1, 2]
    for k, sol in enumerate(sweep, start=1):
        assert sol is solved[min(k, 2) - 1]
        assert len(sol.p) <= k


def test_sweep_of_a_wide_game_adopts_one_solution_per_class(monkeypatch):
    widths = []

    def counting(matrix):
        widths.append(len(matrix[0]))
        return solve_matrix_game(matrix)

    monkeypatch.setattr(simplex, "solve_matrix_game", counting)
    # 3 members, 2^16 columns cycling through 4 classes
    classes = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]
    columns = [classes[i % 4] for i in range(2**16)]
    matrix = [list(row) for row in zip(*columns)]
    values = [sol.value for sol in solve_prefix_games(matrix)]
    assert len(widths) <= 4 and widths[0] == 1
    assert values[:4] == [0, 0, Fraction(2, 3), 1] and set(values[4:]) == {1}


@pytest.mark.parametrize("tamper,match", [
    (lambda sol: dataclasses.replace(sol, q=(Fraction(1), Fraction(1))), "probability"),
    (lambda sol: dataclasses.replace(sol, q=(Fraction(3, 2), Fraction(-1, 2))), "probability"),
    (lambda sol: dataclasses.replace(sol, value=sol.value + 1), "gap"),
    (lambda sol: dataclasses.replace(sol, dual_value=sol.value - 1), "gap"),
    (lambda sol: dataclasses.replace(sol, slack_residual=Fraction(1, 7)), "residual"),
], ids=["q-sum", "q-negative", "value", "dual", "slack"])
def test_sweep_rejects_tampered_certificates(monkeypatch, tamper, match):
    monkeypatch.setattr(simplex, "solve_matrix_game", lambda matrix: tamper(solve_matrix_game(matrix)))
    with pytest.raises(CertificateError, match=match):
        list(solve_prefix_games([[2, 0], [0, 2]]))


def test_sweep_rejects_a_tampered_cold_solve(monkeypatch):
    def tampered(matrix):
        sol = solve_matrix_game(matrix)
        return dataclasses.replace(sol, q=tuple(w / 2 for w in sol.q))

    monkeypatch.setattr(simplex, "solve_matrix_game", tampered)
    with pytest.raises(CertificateError):
        list(solve_prefix_games([[1, 0, 0], [0, 1, 0]]))


def test_support_growth_holds_one_prefix_at_a_time():
    # the variational-shift benchmark config at L=11 (N=2048); a sweep
    # that kept every prefix's length-k p would hold about 2.1M entries
    # (about 17 MB traced), one live prefix holds under 0.5 MB
    system = make_full_shift(2, 11)
    f = zoo.first_coord_potential(system, offset=1.0)
    sources = [f, zoo.first_coord_potential(system, scale=2.0), constant_potential(0.5)]
    t = build_table(system, enumerate_words(2, 11), 3, [f])
    d = Dictionary(tuple(_member(t, g) for g in sources))
    res = maxmin_variational(d, f, t, range(t.size))
    tracemalloc.start()
    try:
        values = [sol.value for sol in solve_prefix_games(res.matrix)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == t.size
    assert values[-1] == res.solution.value
    assert peak < 4 * 2**20


def test_support_growth_equals_maxmin_per_prefix(seeded_six):
    fs = [zoo.random_table_potential(seeded_six, seed=120 + i) for i in range(3)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    d = Dictionary(tuple(_member(t, f) for f in fs))
    support = [4, 1, 5, 0, 3, 2]
    sweep = solve_prefix_games(maxmin_variational(d, fs[0], t, support).matrix)
    for k, sol in enumerate(sweep, start=1):
        assert sol.value == maxmin_variational(d, fs[0], t, support[:k]).solution.value
    with pytest.raises(ValueError, match="empty"):
        maxmin_variational(d, fs[0], t, [])


# ------------------------------------------------------------- equilibria


def test_equilibrium_one_point(one_point):
    f = constant_potential(0.3)
    t = build_table(one_point, one_point.points, 3, [f])
    d = Dictionary((_member(t, f),))
    cands = equilibrium_candidates(maxmin_variational(d, f, t, [0]))
    assert any(c.weights == (1.0,) for c in cands)


def test_equilibrium_singleton_dict_full_simplex(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=90)
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    d = Dictionary((_member(t, f),))
    cands = equilibrium_candidates(maxmin_variational(d, f, t, list(range(6))))
    # constant objective: uniform plus all six vertices qualify
    weights = {tuple(round(w, 9) for w in c.weights) for c in cands}
    assert tuple(round(1 / 6, 9) for _ in range(6)) in weights
    n_vertices = sum(1 for c in cands if max(c.weights) == 1.0)
    assert n_vertices == 6


def test_equilibrium_matches_grid_near_optimal_region(seeded_six):
    fs = [zoo.random_table_potential(seeded_six, seed=95 + i) for i in range(2)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    d = Dictionary(tuple(_member(t, f) for f in fs))
    f = fs[0]
    support = [1, 3, 4]
    res = maxmin_variational(d, f, t, support)
    cands = equilibrium_candidates(res, tol=1e-9)
    rows = np.array(
        [
            t.point_values(m.g, support) + t.point_values(f, support)
            for m in d.members
        ]
    )
    for c in cands:
        val = float(np.min(rows @ np.array(c.weights)))
        assert val >= res.value - 1e-9


def test_equilibrium_reuses_a_solved_game(seeded_six, monkeypatch):
    fs = [zoo.random_table_potential(seeded_six, seed=97 + i) for i in range(3)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    d = Dictionary(tuple(_member(t, f) for f in fs))
    support = list(range(6))
    res = maxmin_variational(d, fs[0], t, support)
    part = maxmin_variational(d, fs[0], t, [5, 2, 3])
    expected = [_per_column_candidates(d, fs[0], t, game.measure.support, game)
                for game in (res, part)]
    monkeypatch.setattr(variational, "solve_matrix_game", None)  # no solve allowed
    monkeypatch.setattr(variational, "game_matrix", None)  # nor a rebuilt game
    got = [equilibrium_candidates(game) for game in (res, part)]
    assert got == expected
    # every candidate lives on the support its game was solved on
    assert {c.support for c in got[1]} == {(5, 2, 3)}


def _per_column_candidates(dictionary, f, t, support, res, tol=1e-9):
    """Reference: every check made column by column over the full game."""
    A = [[Fraction(v) for v in row] for row in variational.game_matrix(dictionary, f, t, support)]
    floor = res.solution.value - Fraction(tol)
    k = len(support)

    def optimal(weights):
        p = [Fraction(w) for w in weights]
        return min(sum(w * row[i] for i, w in enumerate(p)) for row in A) >= floor

    assert optimal(res.measure.weights)
    out = [res.measure]
    seen = {tuple(round(w, 12) for w in res.measure.weights)}
    uniform = tuple(1.0 / k for _ in range(k))
    key = tuple(round(w, 12) for w in uniform)
    if key not in seen and optimal(uniform):
        out.append(FinMeasure(tuple(support), uniform))
        seen.add(key)
    for i in range(k):
        if min(row[i] for row in A) >= floor:
            vertex = tuple(1.0 if j == i else 0.0 for j in range(k))
            if vertex not in seen:
                out.append(FinMeasure(tuple(support), vertex))
                seen.add(vertex)
    return out


def test_equilibrium_candidates_match_the_per_column_loop(seeded_six):
    # a full shift with first-letter potentials: every game has two
    # column classes; the seeded finite game has six distinct columns
    s = make_full_shift(2, 5)
    fs = [zoo.first_coord_potential(s, offset=1.0), zoo.first_coord_potential(s, scale=2.0),
          constant_potential(0.5)]
    t = build_table(s, enumerate_words(2, 5), 3, fs)
    members = [_member(t, f) for f in fs]
    fin = [zoo.random_table_potential(seeded_six, seed=97 + i) for i in range(3)]
    t6 = build_table(seeded_six, seeded_six.points, 3, fin)
    games = [
        (Dictionary(tuple(members)), fs[0], t, [5, 3, 0, 17, 30, 12, 8, 1]),
        (Dictionary(tuple(members)), fs[0], t, list(range(t.size))),
        (Dictionary(tuple(members[:1])), fs[0], t, list(range(t.size))),  # every column ties
        (Dictionary(tuple(_member(t6, f) for f in fin)), fin[0], t6, list(range(6))),
    ]
    for d, f, table, support in games:
        res = maxmin_variational(d, f, table, support)
        for tol in (1e-9, 0.3):
            got = equilibrium_candidates(res, tol=tol)
            assert got == _per_column_candidates(d, f, table, support, res, tol=tol)


def test_bowen_game_lp_width_is_the_class_count(tmp_path, monkeypatch):
    # the singleton game of bowen on all 8192 words of length 13
    games, widths = [], []
    solve_game, solve_lp = simplex.solve_matrix_game, simplex.solve_lp

    def recording_game(matrix):
        games.append(matrix)
        return solve_game(matrix)

    def recording_lp(c, *args):
        widths.append(len(c))
        return solve_lp(c, *args)

    monkeypatch.setattr(variational, "solve_matrix_game", recording_game)
    monkeypatch.setattr(simplex, "solve_lp", recording_lp)
    cfg = {
        "system": {"kind": "full_shift", "m": 2, "L": 13},
        "potential": {"kind": "first_coord", "params": {"offset": 1.0}},
        "sample": {"exhaustive": True},
        "eps_list": [2.0**-3, 2.0**-4, 2.0**-5],
        "n_range": [1, 2, 3, 4],
    }
    path = tmp_path / "bowen.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["bowen", str(path), "--out", str(tmp_path / "o")]) == 0
    (matrix,) = games
    assert len(matrix) == 1 and len(matrix[0]) == 8192
    assert widths == [len(set(zip(*matrix))) + 2]


def test_equilibrium_rejects_a_value_above_the_optimum(seeded_six):
    # a solved game whose value is raised by 1: no vertex and not the
    # uniform measure reach it, and neither does the solver optimum itself
    fs = [zoo.random_table_potential(seeded_six, seed=97 + i) for i in range(2)]
    t = build_table(seeded_six, seeded_six.points, 3, fs)
    d = Dictionary(tuple(_member(t, f) for f in fs))
    support = list(range(6))
    res = maxmin_variational(d, fs[0], t, support)
    assert equilibrium_candidates(res)
    raised = dataclasses.replace(
        res, solution=dataclasses.replace(res.solution, value=res.solution.value + 1)
    )
    with pytest.raises(AssertionError, match="optimal set"):
        equilibrium_candidates(raised)


# ------------------------------------------------------------- variational command


def _variational_shift_smoke():
    """The variational-shift benchmark workload's smoke config."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS["variational-shift"].config(0, True)


def _run_variational(tmp_path, cfg):
    path = tmp_path / "variational.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["variational", str(path), "--out", str(tmp_path / "o")]) == 0
    return json.loads((tmp_path / "o" / "report.json").read_text())


def test_variational_builds_the_dictionary_game_once(tmp_path, monkeypatch):
    cfg = _variational_shift_smoke()
    built = []
    build = variational.game_matrix

    def counting(dictionary, f, t, support):
        built.append(len(dictionary.members))
        return build(dictionary, f, t, support)

    monkeypatch.setattr(variational, "game_matrix", counting)
    _run_variational(tmp_path, cfg)
    # one dictionary game, then one game per tangent perturbation (the
    # dictionary sources after the potential)
    perturbations = len(cfg["dictionary"]["sources"])
    assert len(built) == 1 + perturbations
    assert built[0] == 1 + perturbations


def test_variational_sweeps_equal_the_per_prefix_games(tmp_path):
    # the report's sweeps, read off one solved game, against a cold
    # max-min per dictionary prefix and per support prefix
    cfg = _variational_shift_smoke()
    report = _run_variational(tmp_path, cfg)
    filled = validate_config(cfg)
    system = build_system(filled["system"])
    f = build_potential(filled["potential"], system)
    sources = [f] + [build_potential(spec, system) for spec in filled["dictionary"]["sources"]]
    t = build_table(system, build_sample(filled, system), max(filled["n_range"]), [f])
    members = [make_dict_member(t, h, filled["eps_list"], filled["n_range"]) for h in sources]
    support = list(range(t.size))
    growth = [maxmin_variational(Dictionary(tuple(members[:k])), f, t, support).value
              for k in range(1, len(members) + 1)]
    assert [row["value"] for row in report["dictionary_growth"]] == growth
    assert report["sandwich"]["singleton_value"] == growth[0]
    d = Dictionary(tuple(members))
    prefixes = [float(maxmin_variational(d, f, t, support[:k]).solution.value)
                for k in range(1, t.size + 1)]
    assert [row["value"] for row in report["support_growth"]] == prefixes


# ------------------------------------------------------------- tangent


def test_tangent_constant_perturbations_exact(seeded_six):
    f = zoo.random_table_potential(seeded_six, seed=101)
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    d = Dictionary((_member(t, f),))
    res = maxmin_variational(d, f, t, list(range(6)))
    perts = [constant_potential(c) for c in (-0.5, 0.25, 1.0)]
    proxy_of = lambda h: estimate_mmdim(t, h, EPS3, NR3).upper_proxy
    rep = tangent_check(res.measure, f, perts, t, proxy_of)
    assert rep["ok"], rep
    for row in rep["margins"]:
        assert abs(row["margin"]) <= 1e-9  # both sides equal the constant


def test_tangent_self_perturbation_one_point(one_point):
    f = constant_potential(0.4)
    t = build_table(one_point, one_point.points, 3, [f])
    d = Dictionary((_member(t, f),))
    res = maxmin_variational(d, f, t, [0])
    proxy_of = lambda h: estimate_mmdim(t, h, EPS3, NR3).upper_proxy
    rep = tangent_check(res.measure, f, [f], t, proxy_of)
    assert rep["ok"]
    assert rep["margins"][0]["margin"] == pytest.approx(0.0, abs=1e-12)


def test_tangent_value_functional_zero_violations(seeded_six):
    # the dictionary value functional makes the bound an exact theorem
    rng = np.random.default_rng(7)
    sources = [zoo.random_table_potential(seeded_six, seed=110 + i) for i in range(3)]
    t = build_table(seeded_six, seeded_six.points, 3, sources)
    d = Dictionary(tuple(_member(t, f) for f in sources))
    f = sources[0]
    support = list(range(6))
    res = maxmin_variational(d, f, t, support)
    value_of = lambda h: maxmin_variational(d, h, t, support).value
    perts = []
    for i in range(10):
        vals = rng.uniform(-0.2, 0.2, size=6)
        perts.append(zoo.table_potential(seeded_six, vals, name=f"pert{i}"))
    rep = tangent_check(res.measure, f, perts, t, value_of)
    assert rep["ok"], rep
    for row in rep["margins"]:
        assert row["margin"] >= -1e-12


# ------------------------------------------------------------- bowen root


def test_bowen_root_one_point_zero(one_point):
    f = constant_potential(2.0)
    t = build_table(one_point, one_point.points, 3, [f])
    s0 = bowen_root(t, f, EPS3, NR3, tol=1e-12)
    assert s0 == 0.0


def test_bowen_root_constant_linear_in_s(seeded_six):
    c = 0.8
    f = zoo.table_potential(seeded_six, [c] * 6, name="const")
    z = zoo.table_potential(seeded_six, [0.0] * 6, name="zero")
    t = build_table(seeded_six, seeded_six.points, 3, [f, z])
    m0 = estimate_mmdim(t, z, EPS3, NR3).upper_proxy
    trace = []
    s0 = bowen_root(t, f, EPS3, NR3, tol=1e-12, trace=trace)
    assert s0 == pytest.approx(m0 / c, abs=1e-9)
    assert trace  # bracket recorded per iteration
    # monotone decreasing proxy along the recorded brackets
    proxies = [step["proxy"] for step in trace]
    mids = [step["mid"] for step in trace]
    order = np.argsort(mids)
    assert all(
        proxies[order[i]] >= proxies[order[i + 1]] - 1e-12
        for i in range(len(order) - 1)
    )


def test_bowen_root_frees_its_step_tables(monkeypatch):
    s = make_full_shift(2, 7)
    f = zoo.first_coord_potential(s, offset=1.0)
    t = build_table(s, enumerate_words(2, 7), 3, [f])
    eps_list = [2.0**-3, 2.0**-4, 2.0**-5]
    before = len(t._birkhoff)
    trace = []
    s0 = bowen_root(t, f, eps_list, NR3, tol=1e-10, trace=trace)
    assert len(t._birkhoff) == before
    assert len(trace) > 10
    # keeping every step table changes no value: s0 and trace are bitwise equal
    monkeypatch.setattr(OrbitTable, "birkhoff", _registering_birkhoff)
    kept_trace = []
    assert bowen_root(t, f, eps_list, NR3, tol=1e-10, trace=kept_trace) == s0
    assert kept_trace == trace
    assert len(t._birkhoff) == before + len(trace) + 2


def test_bowen_root_requires_positive_potential(seeded_six):
    f = zoo.table_potential(seeded_six, [0.5, 0.5, 0.5, 0.5, 0.5, -0.1], name="bad")
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    with pytest.raises(ValueError, match="min sampled f > 0"):
        bowen_root(t, f, EPS3, NR3)


def test_bowen_root_without_a_table_names_it():
    f = zoo.first_coord_potential(zoo.make_grid_shift(1, 5, 6), offset=1.0)
    priced = []
    with pytest.raises(ValueError, match="orbit table"):
        bowen_root(None, f, EPS3, NR3, log_pressure=lambda h, n, eps: priced.append(h) or 0.0)
    assert priced == []


def test_grid_bowen_root_is_the_lattice_oracle_root():
    # grid D=1, m=5, L=6, f = 1 + first coordinate: the exact source's
    # root, and greedy over all 15625 words lands on the same double
    g = zoo.make_grid_shift(1, 5, 6)
    f = zoo.first_coord_potential(g, offset=1.0)
    t = build_table(g, enumerate_words(5, 6), 3, [f])
    eps_list = [0.5, 0.3, 0.2]
    s0 = bowen_root(t, f, eps_list, NR3, log_pressure=_grid_source)
    assert s0 == 1.1029261795303076
    assert bowen_root(t, f, eps_list, NR3) == s0


def test_bowen_root_full_shift_golden_ratio():
    # f(x) = 1 + x0 on the binary shift; with the transfer source the
    # per-eps ratio is log(eps^s + eps^2s)/log(1/eps) + k*log(2)*0 slope
    # contribution, and the root solves eps^s + eps^2s = 1 at the
    # smallest eps that dominates the max-ratio proxy
    s = make_full_shift(2, 11)
    f = zoo.first_coord_potential(s, offset=1.0)
    t = build_table(s, enumerate_words(2, 11), 3, [f])
    eps_list = [2.0**-6, 2.0**-7, 2.0**-8]
    letters = []

    def transfer(h, n, eps):
        # h reads the leading letter: its values at letters 0 and 1
        values = h.array(np.array([0.0, 1.0]))
        letters.append(tuple(values))
        return lattice_log_pressure(2, 2, 1, n, eps, values)

    trace = []
    s0 = bowen_root(t, f, eps_list, NR3, tol=1e-10, log_pressure=transfer, trace=trace)
    # proxy(s) = max_k log(eps_k^s + eps_k^2s)/(k log 2): the k=6 branch
    # dominates; its root is s with 2^-6s + 2^-12s = 1 (golden section)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    expected = -math.log(phi) / (6 * math.log(2.0))
    assert s0 == pytest.approx(expected, abs=1e-6)
    # the source priced -s f at s = 0, the bracket's top, then each mid
    scales = [0.0, trace[0]["hi"]] + [step["mid"] for step in trace]
    calls = len(eps_list) * len(NR3)
    assert len(letters) == calls * len(scales)
    assert letters[::calls] == [(-s * 1.0, -s * 2.0) for s in scales]


def test_bowen_root_bracket_failure():
    # proxy never crosses zero when the source is constantly positive
    s = make_full_shift(2, 6)
    f = zoo.first_coord_potential(s, offset=1.0)
    t = build_table(s, s.sample(8, seed=0), 3, [f])
    with pytest.raises(BracketError):
        bowen_root(t, f, EPS3, NR3, log_pressure=lambda h, n, eps: n * 1.0)


# ------------------------------------------------------------- consistency


def test_consistency_one_point(one_point):
    f = constant_potential(1.5)
    t = build_table(one_point, one_point.points, 3, [f])
    d = Dictionary((_member(t, f),))
    mu = FinMeasure((0,), (1.0,))
    rep = bowen_root_consistency(mu, f, 0.0, d, t, budget=1e-12)
    assert rep["ok"]
    assert rep["residual"] == pytest.approx(0.0, abs=1e-12)


def test_consistency_full_shift_constant():
    s = make_full_shift(2, 9)
    c = 0.75
    f = zoo.constant_potential(c)
    z = zoo.zero_potential()
    pts = enumerate_words(2, 9)
    t = build_table(s, pts, 3, [f, z])
    eps_list = [2.0**-2, 2.0**-3, 2.0**-4]
    m0 = estimate_mmdim(t, z, eps_list, NR3).upper_proxy
    s0 = bowen_root(t, f, eps_list, NR3, tol=1e-12)
    d0 = Dictionary((make_dict_member(t, z, eps_list, NR3),))
    mu = FinMeasure((0, 1, 2), (0.25, 0.5, 0.25))
    rep = bowen_root_consistency(mu, f, s0, d0, t, budget=1e-9)
    assert rep["ok"], rep
    assert rep["residual"] <= 1e-9
    assert s0 == pytest.approx(m0 / c, abs=1e-9)


def test_consistency_zero_integral_rejected(seeded_six):
    f = zoo.table_potential(seeded_six, [0.0] * 6, name="zero")
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    d = Dictionary((_member(t, f),))
    mu = FinMeasure((0,), (1.0,))
    with pytest.raises(ValueError, match="zero"):
        bowen_root_consistency(mu, f, 0.1, d, t, budget=1.0)


def test_consistency_seeded_finite_instance(seeded_six):
    f = zoo.table_potential(
        seeded_six,
        [0.9, 1.1, 0.7, 1.3, 0.8, 1.0],
        name="positive",
    )
    t = build_table(seeded_six, seeded_six.points, 3, [f])
    s0 = bowen_root(t, f, EPS3, NR3, tol=1e-12)
    # equilibrium for -s0 f with the dictionary built at the root: the
    # gap member makes measure_dimension(mu) = proxy(-s0 f) + s0 * int(f),
    # so the residual is |proxy(-s0 f)| / int(f) <= tol / min(f)
    root_pot = zoo.scaled_potential(f, -s0)
    t.ensure_potential(root_pot)
    d_root = Dictionary((_member(t, root_pot),))
    res = maxmin_variational(d_root, root_pot, t, list(range(6)))
    rep = bowen_root_consistency(res.measure, f, s0, d_root, t, budget=1e-9)
    assert rep["ok"], rep
    assert rep["residual"] <= 1e-9, rep
