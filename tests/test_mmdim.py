import math

import numpy as np
import pytest

from meandim import system_zoo as zoo
from meandim.mmdim import (
    check_properties,
    estimate_mmdim,
    net_size,
    power_experiment,
    product_experiment,
)
from meandim.numerics import linear_fit
from meandim.oracle import lattice_log_pressure
from meandim.orbit_engine import build_table
from meandim.pressure import greedy_separated
from meandim.system_zoo import constant_potential, enumerate_words, make_full_shift


# ------------------------------------------------------------- growth rate


def _growth_rate(t, f, eps, n_range):
    """Slope of the greedy log-pressure in n at eps: the estimate's first v."""
    return estimate_mmdim(t, f, [eps, eps / 2, eps / 4], n_range).v_lower[0]


def test_one_point_growth_rate_exact(one_point):
    f = constant_potential(0.9)
    t = build_table(one_point, one_point.points, 5, [f])
    for eps in (0.5, 0.3):
        v = _growth_rate(t, f, eps, [1, 2, 3, 4, 5])
        assert v == pytest.approx(0.9 * math.log(1 / eps), abs=1e-12)


def test_full_shift_zero_potential_counts_trend():
    # exhaustive words: log P_n = (n + k) log 2, slope exactly log 2
    s = make_full_shift(2, 9)
    f = zoo.zero_potential()
    pts = enumerate_words(2, 9)
    t = build_table(s, pts, 4, [f])
    for k in (2, 3, 5):
        eps = 2.0 ** (-k)
        for n in (1, 2, 3, 4):
            lv = greedy_separated(t, f, n, eps).log_value
            assert lv == pytest.approx((n + k) * math.log(2.0), abs=1e-10)
        v = _growth_rate(t, f, eps, [1, 2, 3, 4])
        assert v == pytest.approx(math.log(2.0), abs=1e-10)


def test_growth_rate_zero_above_diameter(seeded_six):
    f = zoo.table_potential(seeded_six, [0.0] * 6, name="zero")
    t = build_table(seeded_six, seeded_six.points, 4, [f])
    eps = 0.99  # above the sample diameter (distances <= 1 after closure)
    assert eps > float(np.max(t.bowen_matrix(4)))
    assert _growth_rate(t, f, eps, [1, 2, 3, 4]) == pytest.approx(0.0, abs=1e-12)


def test_growth_rate_needs_three_points(one_point):
    f = constant_potential(0.0)
    t = build_table(one_point, one_point.points, 4, [f])
    with pytest.raises(ValueError):
        _growth_rate(t, f, 0.5, [2, 2, 2])
    with pytest.raises(ValueError):
        _growth_rate(t, f, 0.5, [1, 2])


# ------------------------------------------------------------- estimate


def test_one_point_estimate_is_constant(one_point):
    f = constant_potential(1.37)
    t = build_table(one_point, one_point.points, 4, [f])
    est = estimate_mmdim(t, f, [0.5, 0.25, 0.125], [1, 2, 3, 4])
    for r in est.ratios:
        assert r == pytest.approx(1.37, abs=1e-12)
    assert est.slope == pytest.approx(1.37, abs=1e-12)
    assert est.upper_proxy == pytest.approx(1.37, abs=1e-12)
    assert est.lower_proxy == pytest.approx(1.37, abs=1e-12)
    assert est.lower_proxy <= est.upper_proxy


def test_full_shift_first_letter_ratio_matches_transfer():
    # exhaustive words of length 11 resolve eps down to 2^-8 for n <= 3
    s = make_full_shift(2, 11)
    f = zoo.first_coord_potential(s)
    t = build_table(s, enumerate_words(2, 11), 3, [f])
    est = estimate_mmdim(t, f, [2.0**-6, 2.0**-7, 2.0**-8], [1, 2, 3])
    expected = math.log(1 + 2.0**8) / (8 * math.log(2.0))
    assert est.ratios[-1] == pytest.approx(expected, abs=1e-10)
    for d in est.diagnostics["per_eps"]:
        assert d["resolved"]
    # per-(n, eps) pressures agree with the closed form
    for n in (1, 2, 3):
        lv = greedy_separated(t, f, n, 2.0**-8).log_value
        assert lv == pytest.approx(
            lattice_log_pressure(2, 2, 1, n, 2.0**-8, [0.0, 1.0]), abs=1e-9
        )


def test_grid_slope_oracle_backend_lands_in_box():
    for D in (1, 2):
        exact = lambda h, n, eps, _D=D: lattice_log_pressure(17, 17, _D, n, eps, np.zeros(17))
        est = estimate_mmdim(
            None, zoo.zero_potential(), [0.25, 0.125, 0.0625], [1, 2, 3],
            log_pressure=exact,
        )
        assert 0.8 * D <= est.slope <= 1.1 * D
        assert est.diagnostics["backend"] == "injected"


def test_under_resolved_eps_flagged_and_excluded():
    s = make_full_shift(2, 8)
    f = zoo.zero_potential()
    pts = s.sample(12, seed=3)
    t = build_table(s, pts, 3, [f])
    # 2^-7 is far below what 12 random words can resolve
    est = estimate_mmdim(t, f, [0.5, 0.25, 2.0**-7], [1, 2, 3])
    flags = [d["resolved"] for d in est.diagnostics["per_eps"]]
    assert flags[0] and flags[1] and not flags[2]
    assert 2.0**-7 not in est.diagnostics["slope_eps_used"]


def test_repeated_draws_flag_like_their_distinct_points():
    # a repeat lies at d = 0 from its twin: it must not count as resolution
    s = make_full_shift(2, 8)
    f = zoo.zero_potential()
    pts = s.sample(1000, seed=0)
    distinct = np.unique(pts, axis=0)
    assert len(distinct) == 249

    def flags(sample):
        est = estimate_mmdim(build_table(s, sample, 3, [f]), f, [2.0**-5, 2.0**-6, 2.0**-7], [1, 2, 3])
        return [d["resolved"] for d in est.diagnostics["per_eps"]]

    assert flags(pts) == flags(distinct) == [True, False, False]


def test_one_point_sample_never_flagged(one_point):
    f = constant_potential(0.4)
    t = build_table(one_point, one_point.points, 3, [f])
    est = estimate_mmdim(t, f, [0.5, 0.25, 0.125], [1, 2, 3])
    assert all(d["resolved"] for d in est.diagnostics["per_eps"])


def test_ratio_base_invariance():
    # recompute the ratio in base 2: identical to 1e-12
    s = make_full_shift(2, 9)
    f = zoo.first_coord_potential(s)
    t = build_table(s, enumerate_words(2, 9), 3, [f])
    eps = 0.125
    n_vals = [1, 2, 3]
    nats = [greedy_separated(t, f, n, eps).log_value for n in n_vals]
    v_nat, _, _ = linear_fit(n_vals, nats)
    v_b2, _, _ = linear_fit(n_vals, [x / math.log(2.0) for x in nats])
    ratio_nat = v_nat / math.log(1 / eps)
    ratio_b2 = v_b2 / math.log2(1 / eps)
    assert ratio_nat == pytest.approx(ratio_b2, abs=1e-12)


def test_finite_entropy_ratio_bound(seeded_six):
    # f = 0 on a finite system: ratio <= log N / (n log(1/eps))
    f = zoo.table_potential(seeded_six, [0.0] * 6, name="zero")
    t = build_table(seeded_six, seeded_six.points, 4, [f])
    n_vals = [1, 2, 3, 4]
    for eps in (0.3, 0.2, 0.1):
        v = _growth_rate(t, f, eps, n_vals)
        bound = math.log(6) / (1 * math.log(1 / eps))
        assert v / math.log(1 / eps) <= bound + 1e-12


def test_estimate_validations(one_point):
    f = constant_potential(0.0)
    t = build_table(one_point, one_point.points, 3, [f])
    with pytest.raises(ValueError):
        estimate_mmdim(t, f, [0.5, 0.25], [1, 2, 3])  # too few eps
    with pytest.raises(ValueError):
        estimate_mmdim(t, f, [0.25, 0.5, 0.125], [1, 2, 3])  # not decreasing
    with pytest.raises(ValueError):
        estimate_mmdim(t, f, [0.5, 0.25, 0.125], [1, 2, 9])  # beyond n_max


# ------------------------------------------------------------- properties


def _nonneg_pair(system, seed):
    f = zoo.random_table_potential(system, seed=seed, low=0.0, high=1.5)
    bump = zoo.random_table_potential(system, seed=seed + 500, low=0.0, high=0.5)
    g = zoo.table_potential(
        system,
        f.array(system.points) + bump.array(system.points),
        name=f"g{seed}",
    )
    return f, g


def test_check_properties_seeded_draws(seeded_six):
    rng = np.random.default_rng(42)
    t = build_table(seeded_six, seeded_six.points, 3, [])
    for draw in range(50):
        f, g = _nonneg_pair(seeded_six, 3000 + draw)
        c = float(rng.uniform(-2.0, 2.0))
        p = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(0.15, 0.6))
        n = int(rng.integers(1, 4))
        rep = check_properties(t, f, g, c, p, eps, n)
        assert rep["ok"], rep
        assert rep["items"]["1_monotone"]["applicable"]
        assert rep["items"]["6_subadditive"]["applicable"]


def test_check_properties_trivial_edges(seeded_six):
    t = build_table(seeded_six, seeded_six.points, 3, [])
    f, _ = _nonneg_pair(seeded_six, 77)
    # f = g: the Lipschitz gap is exactly 0; p = 1 gives equality in 5b
    rep = check_properties(t, f, f, 0.0, 1.0, 0.4, 2)
    assert rep["ok"]
    assert rep["items"]["5a_lipschitz"]["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert rep["items"]["5b_convexity"]["lhs"] == pytest.approx(
        rep["items"]["5b_convexity"]["rhs"], abs=1e-12
    )


def test_check_properties_additive_constant_tight(seeded_six):
    t = build_table(seeded_six, seeded_six.points, 3, [])
    f, g = _nonneg_pair(seeded_six, 90)
    for c in (-1.5, -0.3, 0.0, 0.8, 2.0):
        rep = check_properties(t, f, g, c, 0.5, 0.35, 2)
        assert abs(rep["items"]["2_additive_constant"]["deviation"]) <= 1e-10


def test_check_properties_scaling_both_directions(seeded_six):
    t = build_table(seeded_six, seeded_six.points, 3, [])
    f, g = _nonneg_pair(seeded_six, 91)
    for c in (0.2, 0.9, 1.0, 1.7, 3.0):
        rep = check_properties(t, f, g, c, 0.5, 0.3, 2)
        assert rep["items"]["7_scaling"]["ok"]


# ------------------------------------------------------------- experiments


def test_product_experiment_one_point_factor(one_point, seeded_six):
    f1 = constant_potential(0.0)
    f2 = zoo.random_table_potential(seeded_six, seed=8)
    rep = product_experiment(
        one_point, f1, seeded_six, f2, [0.5, 0.35, 0.2], [1, 2, 3]
    )
    assert rep["ok"], rep
    assert rep["oracle_used"]
    # identity factor: the product proxy equals the nontrivial factor's
    assert rep["proxy_product"] == pytest.approx(rep["proxy_factor_sum"], abs=1e-9)


def test_product_experiment_seeded_three_point_systems():
    s1 = zoo.random_finite_system(3, seed=51, low=0.1, high=1.0)
    s2 = zoo.random_finite_system(3, seed=52, low=0.1, high=1.0)
    f1 = zoo.random_table_potential(s1, seed=53)
    f2 = zoo.random_table_potential(s2, seed=54)
    rep = product_experiment(s1, f1, s2, f2, [0.4, 0.3, 0.2], [1, 2, 3])
    assert rep["ok"], rep
    assert rep["oracle_used"]


def test_product_two_binary_shifts_vs_four_shift():
    # (2-shift) x (2-shift) with the max metric is isometric to the
    # 4-shift on paired letters, so the upper proxies must agree
    L = 5
    s2a = make_full_shift(2, L)
    s2b = make_full_shift(2, L)
    f0 = zoo.zero_potential()
    words = enumerate_words(2, L)
    rep = product_experiment(
        s2a, f0, s2b, f0, [0.7, 0.5, 0.25], [1, 2, 3],
        pts1=words, pts2=words,
    )
    assert rep["ok"], rep
    s4 = make_full_shift(4, L)
    t4 = build_table(s4, enumerate_words(4, L), 3, [f0])
    est4 = estimate_mmdim(t4, f0, [0.7, 0.5, 0.25], [1, 2, 3])
    assert abs(rep["proxy_product"] - est4.upper_proxy) <= 0.05


def test_power_experiment_one_point(one_point):
    f = constant_potential(0.6)
    rep = power_experiment(one_point, f, 2, [0.5, 0.35, 0.2], [1, 2, 3])
    assert rep["ok"], rep
    assert rep["proxy_iterate"] == pytest.approx(
        rep["proxy_base_times_k"], abs=1e-9
    )


def test_power_experiment_swap_square_is_identity(swap_two):
    f = zoo.table_potential(swap_two, [0.0, 1.0])
    rep = power_experiment(swap_two, f, 2, [0.5, 0.35, 0.2], [1, 2, 3])
    assert rep["ok"], rep
    assert rep["reverse_check_enabled"]


def test_power_experiment_full_shift_doubling():
    s = make_full_shift(2, 10)
    f = zoo.first_coord_potential(s)
    rep = power_experiment(
        s, f, 2, [2.0**-3, 2.0**-4, 2.0**-5], [1, 2, 3],
        pts=enumerate_words(2, 10),
    )
    assert rep["ok"], rep
    lhs, rhs = rep["proxy_iterate"], rep["proxy_base_times_k"]
    assert abs(lhs - rhs) / rhs <= 0.10


def test_experiments_need_a_sample_off_finite_systems(seeded_six):
    s = make_full_shift(2, 4)
    f, g = zoo.zero_potential(), zoo.random_table_potential(seeded_six, seed=8)
    with pytest.raises(ValueError, match="pass its sample"):
        power_experiment(s, f, 2, [0.5, 0.35, 0.2], [1, 2, 3])
    with pytest.raises(ValueError, match="pass its sample"):
        product_experiment(seeded_six, g, s, f, [0.5, 0.35, 0.2], [1, 2, 3])
    rep = product_experiment(seeded_six, g, s, f, [0.5, 0.35, 0.2], [1, 2, 3], pts2=enumerate_words(2, 4))
    assert rep["ok"], rep


def test_net_size_monotone(seeded_six):
    t = build_table(seeded_six, seeded_six.points, 2, [])
    sizes = [net_size(t, eps) for eps in (0.05, 0.2, 0.5, 0.9)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_spanning_rate_slack_per_n_on_exact_oracle():
    # finite form of the cover-vs-separated rate comparison: for every n,
    # exact log Q(n, eps/2) >= exact log P(n, eps)
    #                           - n * (gamma(eps) log(1/eps) + ||f|| log 2)
    from meandim.oracle import exact_pressure

    for seed in (201, 202, 203):
        s = zoo.random_finite_system(6, seed=seed, low=0.1, high=1.0)
        f = zoo.random_table_potential(s, seed=seed + 50)
        t = build_table(s, s.points, 3, [f])
        for eps in (0.3, 0.5):
            gamma = f.lip * eps
            slack_per_step = gamma * math.log(1 / eps) + f.sup_norm * math.log(2.0)
            for n in (1, 2, 3):
                q_half = exact_pressure(t, f, n, eps / 2).exact_log_q
                p_full = exact_pressure(t, f, n, eps).exact_log_p
                assert q_half >= p_full - n * slack_per_step - 1e-9
