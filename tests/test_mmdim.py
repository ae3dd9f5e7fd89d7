import math

import numpy as np
import pytest

import scalar_route as ref
from meandim import system_zoo as zoo
from meandim.mmdim import check_properties, estimate_mmdim, net_size
from meandim.numerics import linear_fit
from meandim.oracle import SUBSET_LIMIT, exact_pressure, lattice_log_pressure
from meandim.orbit_engine import OrbitTable, build_table
from meandim.pressure import greedy_separated, greedy_witness, log_sum
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
    # three decreasing doubles whose float log(1/eps) coincide: no slope
    tiny = [1e-300, math.nextafter(1e-300, 0.0), math.nextafter(math.nextafter(1e-300, 0.0), 0.0)]
    assert len({math.log(1.0 / e) for e in tiny}) == 1
    with pytest.raises(ValueError, match="log"):
        estimate_mmdim(t, f, tiny, [1, 2, 3])


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


def test_check_properties_builds_each_table_once(seeded_six, monkeypatch):
    # f and g are unregistered, so they share the table's one slot: read
    # in turn, each would be rebuilt at every read
    t = build_table(seeded_six, seeded_six.points, 3, [])
    f, g = _nonneg_pair(seeded_six, 92)
    built, prefix_sums = [], OrbitTable._prefix_sums
    monkeypatch.setattr(OrbitTable, "_prefix_sums", lambda self, h: built.append(h) or prefix_sums(self, h))
    rep = check_properties(t, f, g, 0.7, 0.5, 0.35, 2)
    assert rep["ok"] and built == [f, g]
    # its own witness sums are bitwise pressure.log_sum's
    item = rep["items"]["1_monotone"]
    assert [item["lhs"], item["rhs"]] == [log_sum(t, h, rep["witness"], 2, 0.35) for h in (f, g)]


# ------------------------------------------------------------- experiments


def _product_proxies(s1, f1, pts1, s2, f2, pts2, eps_list, n_range):
    """Assert the finite-level product rules at every (n, eps); return the
    upper proxies of the product and of the factor sum."""
    prod_sys, prod_f = ref.make_product(s1, s2, f1, f2)
    t1 = build_table(s1, pts1, max(n_range), [f1])
    t2 = build_table(s2, pts2, max(n_range), [f2])
    # i-major pair order: the flat index of (i, j) is i * t2.size + j
    tp = build_table(prod_sys, ref.pair_samples(pts1, pts2, cartesian=True), max(n_range), [prod_f])
    for n in n_range:
        for eps in eps_list:
            e1, e2 = greedy_witness(t1, f1, n, eps), greedy_witness(t2, f2, n, eps)
            idx = [a * t2.size + b for a in e1 for b in e2]
            assert tp.spans(idx, n, eps)  # a product of spanning sets spans
            assert log_sum(tp, prod_f, idx, n, eps) == pytest.approx(
                log_sum(t1, f1, e1, n, eps) + log_sum(t2, f2, e2, n, eps), abs=1e-10)
            if tp.size <= SUBSET_LIMIT:
                q = lambda t, h: exact_pressure(t, h, n, eps).exact_log_q
                assert q(tp, prod_f) <= q(t1, f1) + q(t2, f2) + 1e-9
    proxy = lambda t, h: estimate_mmdim(t, h, eps_list, n_range).upper_proxy
    return proxy(tp, prod_f), proxy(t1, f1) + proxy(t2, f2)


def _power_proxies(s, f, k, pts, eps_list, n_range):
    """Assert the finite-level power rules of the k-fold iterate at every
    (n, eps); return the upper proxies of the iterate and of k times the base."""
    n_top = max(n_range)
    iter_sys, iter_f = ref.make_iterate(s, f, k)
    tb = build_table(s, pts, n_top * k, [f])
    ti = build_table(iter_sys, pts, n_top, [iter_f])
    # cocycle: the iterate's n-step sums are the base's nk-step sums
    dev = ti.birkhoff(iter_f)[:, : n_top + 1] - tb.birkhoff(f)[:, ::k][:, : n_top + 1]
    assert np.max(np.abs(dev)) <= 1e-10
    C = max(s.lip_map, 1.0) ** k
    nonneg = np.min(tb.birkhoff(f)) >= 0.0
    for n in n_range:
        for eps in eps_list:
            assert ti.spans(greedy_witness(tb, f, n * k, eps), n, eps)
            if len(pts) <= SUBSET_LIMIT:
                qi = exact_pressure(ti, iter_f, n, eps).exact_log_q
                assert qi <= exact_pressure(tb, f, n * k, eps).exact_log_q + 1e-9
                if C * eps < 1.0 and nonneg:  # reverse: base d_nk <= C * iterate d_n
                    assert exact_pressure(tb, f, n * k, C * eps).exact_log_q <= qi + 1e-9
    proxy = lambda t, h: estimate_mmdim(t, h, eps_list, n_range).upper_proxy
    return proxy(ti, iter_f), k * proxy(tb, f)


def test_product_experiment_one_point_factor(one_point, seeded_six):
    f1 = constant_potential(0.0)
    f2 = zoo.random_table_potential(seeded_six, seed=8)
    assert len(one_point.points) * len(seeded_six.points) <= SUBSET_LIMIT
    prod, factor_sum = _product_proxies(one_point, f1, one_point.points, seeded_six, f2,
                                        seeded_six.points, [0.5, 0.35, 0.2], [1, 2, 3])
    # identity factor: the product proxy equals the nontrivial factor's
    assert prod == pytest.approx(factor_sum, abs=1e-9)


def test_product_experiment_seeded_three_point_systems():
    s1 = zoo.random_finite_system(3, seed=51, low=0.1, high=1.0)
    s2 = zoo.random_finite_system(3, seed=52, low=0.1, high=1.0)
    f1 = zoo.random_table_potential(s1, seed=53)
    f2 = zoo.random_table_potential(s2, seed=54)
    assert len(s1.points) * len(s2.points) <= SUBSET_LIMIT
    _product_proxies(s1, f1, s1.points, s2, f2, s2.points, [0.4, 0.3, 0.2], [1, 2, 3])


def test_product_two_binary_shifts_vs_four_shift():
    # (2-shift) x (2-shift) with the max metric is isometric to the
    # 4-shift on paired letters, so the upper proxies must agree
    L = 5
    f0 = zoo.zero_potential()
    words = enumerate_words(2, L)
    prod, _ = _product_proxies(make_full_shift(2, L), f0, words, make_full_shift(2, L), f0,
                               words, [0.7, 0.5, 0.25], [1, 2, 3])
    s4 = make_full_shift(4, L)
    t4 = build_table(s4, enumerate_words(4, L), 3, [f0])
    est4 = estimate_mmdim(t4, f0, [0.7, 0.5, 0.25], [1, 2, 3])
    assert abs(prod - est4.upper_proxy) <= 0.05


def test_power_experiment_one_point(one_point):
    f = constant_potential(0.6)
    it, base_k = _power_proxies(one_point, f, 2, one_point.points, [0.5, 0.35, 0.2], [1, 2, 3])
    assert it == pytest.approx(base_k, abs=1e-9)


def test_power_experiment_swap_square_is_identity(swap_two):
    f = zoo.table_potential(swap_two, [0.0, 1.0])
    _power_proxies(swap_two, f, 2, swap_two.points, [0.5, 0.35, 0.2], [1, 2, 3])


def test_power_experiment_full_shift_doubling():
    s = make_full_shift(2, 10)
    f = zoo.first_coord_potential(s)
    lhs, rhs = _power_proxies(s, f, 2, enumerate_words(2, 10), [2.0**-3, 2.0**-4, 2.0**-5], [1, 2, 3])
    assert abs(lhs - rhs) / rhs <= 0.10


def test_product_experiment_finite_times_shift(seeded_six):
    s = make_full_shift(2, 4)
    f, g = zoo.zero_potential(), zoo.random_table_potential(seeded_six, seed=8)
    _product_proxies(seeded_six, g, seeded_six.points, s, f, enumerate_words(2, 4),
                     [0.5, 0.35, 0.2], [1, 2, 3])


def test_net_size_monotone(seeded_six):
    t = build_table(seeded_six, seeded_six.points, 2, [])
    sizes = [net_size(t, eps) for eps in (0.05, 0.2, 0.5, 0.9)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_spanning_rate_slack_per_n_on_exact_oracle():
    # finite form of the cover-vs-separated rate comparison: for every n,
    # exact log Q(n, eps/2) >= exact log P(n, eps)
    #                           - n * (gamma(eps) log(1/eps) + ||f|| log 2)
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
