"""Acceptance gate: one test per criterion, one printed pass/fail line.

Quantitative targets are derived from the in-repo exhaustive oracles
(subset enumeration, prefix enumeration, the lattice pressure oracle,
dense simplex grids); tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np

import scalar_route as ref
from meandim import system_zoo as zoo
from meandim.cli import main as cli_main
from meandim.mmdim import check_properties, estimate_mmdim
from meandim.oracle import exact_pressure, lattice_log_pressure
from meandim.orbit_engine import build_table
from meandim.pressure import check_sandwich, greedy_separated, spanning_from_separated
from meandim.system_zoo import constant_potential, enumerate_words, make_full_shift
from meandim.variational import (
    Dictionary,
    bowen_root,
    bowen_root_consistency,
    equilibrium_candidates,
    make_dict_member,
    maxmin_variational,
    tangent_check,
)

EPS_TRIO = (0.2, 0.35, 0.5)
N_RANGE = (1, 2, 3)


def _report(number: int, label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"\nACCEPTANCE {number} {status} - {label}{tail}")
    assert ok, f"criterion {number} failed: {label} {tail}"


def _seeded_instances(count, sizes=(2, 3, 4, 5, 6, 7), base_seed=9000):
    out = []
    for i in range(count):
        size = sizes[i % len(sizes)]
        system = zoo.random_finite_system(size, seed=base_seed + i, low=0.1, high=1.0)
        f = zoo.random_table_potential(system, seed=base_seed + 500 + i)
        out.append((system, f))
    return out


def test_criterion_1_oracle_bracket_suite():
    start = time.monotonic()
    violations = 0
    for system, f in _seeded_instances(200):
        t = build_table(system, system.points, 4, [f])
        for n in (1, 2, 3, 4):
            for eps in EPS_TRIO:
                ep = exact_pressure(t, f, n, eps)
                lo = greedy_separated(t, f, n, eps)
                hi = spanning_from_separated(t, f, n, eps)
                if lo.log_value > ep.exact_log_p:
                    violations += 1
                if hi.log_value < ep.exact_log_q:
                    violations += 1
                if ep.exact_log_q > ep.exact_log_p:
                    violations += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        "oracle bracket suite: greedy <= exact P, spanning >= exact Q, Q <= P "
        "on 200 seeded systems",
        violations == 0 and elapsed < 120.0,
        f"{violations} violations, {elapsed:.1f}s < 120s",
    )


def test_criterion_2_sandwich_inequality():
    start = time.monotonic()
    violations = 0
    for system, f in _seeded_instances(200):
        t = build_table(system, system.points, 4, [f])
        for n in (2, 4):
            for eps in EPS_TRIO:
                pair = (
                    exact_pressure(t, f, n, eps),
                    exact_pressure(t, f, n, eps / 2.0),
                )
                rep = check_sandwich(t, f, n, eps, oracle=pair)
                if not rep["ok"]:
                    violations += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        "cover-vs-separated inequality with gamma(eps) = lip * eps on the "
        "same 200 instances",
        violations == 0,
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_3_pressure_property_suite():
    rng = np.random.default_rng(2024)
    violations = 0
    worst_shift_dev = 0.0
    systems = [
        zoo.random_finite_system(6, seed=100 + j, low=0.1, high=1.0) for j in range(10)
    ]
    tables = {j: build_table(s, s.points, 3, []) for j, s in enumerate(systems)}
    for draw in range(500):
        j = draw % 10
        system, t = systems[j], tables[j]
        f = zoo.random_table_potential(system, seed=4000 + draw, low=0.0, high=1.5)
        bump = zoo.random_table_potential(system, seed=4500 + draw, low=0.0, high=0.5)
        g = zoo.table_potential(
            system,
            t.point_values(f, range(6)) + t.point_values(bump, range(6)),
            name=f"g{draw}",
        )
        c = float(rng.uniform(-2.0, 2.0))
        p = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(0.15, 0.6))
        n = int(rng.integers(1, 4))
        rep = check_properties(t, f, g, c, p, eps, n)
        if not rep["ok"]:
            violations += 1
        worst_shift_dev = max(
            worst_shift_dev, abs(rep["items"]["2_additive_constant"]["deviation"])
        )
    _report(
        3,
        "pressure-sum property suite (items 1, 2, 5a, 5b, 6, 7) over 500 draws",
        violations == 0 and worst_shift_dev <= 1e-10,
        f"{violations} violations, additive-constant deviation {worst_shift_dev:.2e} <= 1e-10",
    )


def test_criterion_4_full_shift_first_letter():
    start = time.monotonic()
    s = make_full_shift(2, 11)
    f = zoo.first_coord_potential(s)
    t = build_table(s, enumerate_words(2, 11), 3, [f])
    est = estimate_mmdim(t, f, [2.0**-6, 2.0**-7, 2.0**-8], list(N_RANGE))
    target = math.log(1 + 2.0**8) / (8 * math.log(2.0))
    ratio_dev = abs(est.ratios[-1] - target)

    worst_lattice = 0.0
    for total in range(2, 13):
        for n in range(1, total):
            k = total - n
            eps = 2.0**-k
            worst_lattice = max(
                worst_lattice,
                abs(
                    lattice_log_pressure(2, 2, 1, n, eps, [0.0, 1.0])
                    - ref.enumerate_shift_pressure(2, [0.0, 1.0], n, k, eps)
                ),
            )
    elapsed = time.monotonic() - start
    _report(
        4,
        "binary shift with first-letter potential: ratio at eps = 2^-8 vs "
        "closed form; lattice oracle vs enumeration for n+k <= 12",
        ratio_dev <= 0.02 and worst_lattice <= 1e-10 and elapsed < 60.0,
        f"ratio dev {ratio_dev:.2e} <= 0.02, lattice dev {worst_lattice:.2e} <= 1e-10, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_5_grid_shift_slope():
    start = time.monotonic()
    eps_window = [2.0**-2, 2.0**-3, 2.0**-4]
    slopes = {}
    for D in (1, 2):
        exact = lambda h, n, eps, _D=D: lattice_log_pressure(17, 17, _D, n, eps, np.zeros(17))
        est = estimate_mmdim(
            None, zoo.zero_potential(), eps_window, list(N_RANGE), log_pressure=exact
        )
        slopes[D] = est.slope
    in_box = all(0.8 * D <= slopes[D] <= 1.1 * D for D in (1, 2))

    # certify the counting backend against greedy counting on exhaustive
    # samples at enumerable scale (m = 3 and m = 5, every contributing
    # letter position inside the words)
    cross_dev = 0.0
    for m, L, eps_set in ((3, 5, (0.5, 0.25)), (5, 5, (0.25,))):
        g = zoo.make_grid_shift(1, m, L)
        pts = zoo.enumerate_words(m, L)
        f = zoo.zero_potential()
        tg = build_table(g, pts, 3, [f])
        for n in N_RANGE:
            for eps in eps_set:
                cross_dev = max(
                    cross_dev,
                    abs(
                        greedy_separated(tg, f, n, eps).log_value
                        - lattice_log_pressure(m, m, 1, n, eps, np.zeros(m))
                    ),
                )
    elapsed = time.monotonic() - start
    _report(
        5,
        "grid-shift slope via exact per-letter counts: slope in [0.8D, 1.1D] "
        "for D = 1, 2 at m = 17",
        in_box and cross_dev <= 1e-10 and elapsed < 300.0,
        f"slopes D1 {slopes[1]:.4f}, D2 {slopes[2]:.4f}; greedy-vs-count dev "
        f"{cross_dev:.2e}; {elapsed:.1f}s < 300s",
    )


def test_criterion_6_one_point_exactness():
    system = zoo.make_finite_system([[0.0]], [0], name="one_point")
    rng = np.random.default_rng(66)
    worst_est = worst_maxmin = worst_root = 0.0
    eps_list = [0.5, 0.25, 0.125]
    for _ in range(20):
        c = float(rng.uniform(-2.0, 2.0))
        f = constant_potential(c)
        t = build_table(system, system.points, 3, [f])
        est = estimate_mmdim(t, f, eps_list, list(N_RANGE))
        worst_est = max(
            worst_est,
            abs(est.slope - c),
            abs(est.upper_proxy - c),
            abs(est.lower_proxy - c),
            max(abs(r - c) for r in est.ratios),
        )
        member = make_dict_member(t, f, eps_list, list(N_RANGE))
        res = maxmin_variational(Dictionary((member,)), f, t, [0])
        worst_maxmin = max(worst_maxmin, abs(res.value - c))

        pos = constant_potential(abs(c) + 0.1)
        tp = build_table(system, system.points, 3, [pos])
        s0 = bowen_root(tp, pos, eps_list, list(N_RANGE), tol=1e-12)
        worst_root = max(worst_root, abs(s0 - 0.0))
    _report(
        6,
        "one-point system exactness: estimate = f(p), maxmin = f(p), "
        "root of the scaled-potential proxy = 0",
        worst_est <= 1e-12 and worst_maxmin <= 1e-12 and worst_root <= 1e-9,
        f"estimate dev {worst_est:.2e}, maxmin dev {worst_maxmin:.2e}, "
        f"root dev {worst_root:.2e} <= 1e-9",
    )


def test_criterion_7_maxmin_sandwich_and_monotonicity():
    eps_list = list(EPS_TRIO[::-1])  # decreasing
    sizes = (4, 5, 6, 7)
    worst_singleton = 0.0
    worst_gap = 0.0
    monotonicity_violations = 0
    for i in range(50):
        size = sizes[i % len(sizes)]
        system = zoo.random_finite_system(size, seed=7000 + i, low=0.1, high=1.0)
        f = zoo.random_table_potential(system, seed=7500 + i)
        extra1 = zoo.random_table_potential(system, seed=7600 + i)
        extra2 = zoo.random_table_potential(system, seed=7700 + i)
        t = build_table(system, system.points, 3, [f, extra1, extra2])
        support = list(range(size))

        members = [make_dict_member(t, h, eps_list, list(N_RANGE)) for h in (f, extra1, extra2)]
        res1 = maxmin_variational(Dictionary((members[0],)), f, t, support)
        worst_singleton = max(worst_singleton, abs(res1.value - members[0].m_hat))
        res2 = maxmin_variational(Dictionary(tuple(members[:2])), f, t, support)
        res3 = maxmin_variational(Dictionary(tuple(members)), f, t, support)
        # exact rational comparison: growing the dictionary never raises the value
        if res2.solution.value > res1.solution.value:
            monotonicity_violations += 1
        if res3.solution.value > res2.solution.value:
            monotonicity_violations += 1
        worst_gap = max(worst_gap, *(float(r.solution.gap) for r in (res1, res2, res3)))
    _report(
        7,
        "max-min sandwich on 50 seeded pairs: singleton dictionary value "
        "equals the estimate; dictionary growth is monotone; duality gap",
        worst_singleton <= 1e-9 and monotonicity_violations == 0 and worst_gap < 1e-9,
        f"singleton dev {worst_singleton:.2e} <= 1e-9, {monotonicity_violations} "
        f"monotonicity violations, max gap {worst_gap:.2e} < 1e-9",
    )


def test_criterion_8_equilibrium_suite():
    eps_list = list(EPS_TRIO[::-1])
    rng = np.random.default_rng(88)
    midpoint_ok = True
    tangent_violations = 0
    constant_margin_dev = 0.0

    for i in range(10):
        system = zoo.random_finite_system(6, seed=8100 + i, low=0.1, high=1.0)
        sources = [
            zoo.random_table_potential(system, seed=8200 + i * 10 + j) for j in range(3)
        ]
        t = build_table(system, system.points, 3, sources)
        support = list(range(6))

        # members built on exact-oracle pressures (enumerable instances)
        exact = lambda h, n, eps: exact_pressure(t, h, n, eps).exact_log_p
        members = [
            make_dict_member(t, h, eps_list, list(N_RANGE), log_pressure=exact)
            for h in sources
        ]
        dictionary = Dictionary(tuple(members))
        f = sources[0]

        res = maxmin_variational(dictionary, f, t, support)
        # midpoint-optimality of the candidate set (raises internally too)
        cands = equilibrium_candidates(res, tol=1e-12)
        rows = np.array(
            [
                t.point_values(m.g, support) + t.point_values(f, support)
                for m in dictionary.members
            ]
        )
        for a in range(len(cands)):
            for b in range(a + 1, len(cands)):
                mid = 0.5 * np.array(cands[a].weights) + 0.5 * np.array(cands[b].weights)
                if float(np.min(rows @ mid)) < res.value - 1e-9:
                    midpoint_ok = False

        # eta = 0: the mean-dimension functional and the equilibrium share
        # the same dictionary values, making the increment bound exact
        value_of = lambda h: maxmin_variational(dictionary, h, t, support).value
        perturbations = [
            zoo.table_potential(
                system, rng.uniform(-0.2, 0.2, size=6), name=f"pert{i}_{j}"
            )
            for j in range(10)
        ]
        rep = tangent_check(res.measure, f, perturbations, t, value_of)
        tangent_violations += sum(1 for row in rep["margins"] if row["margin"] < -1e-12)

        # constant perturbations are exact for the raw estimate functional too
        proxy_of = lambda h: estimate_mmdim(t, h, eps_list, list(N_RANGE)).upper_proxy
        rep_const = tangent_check(res.measure, f, [constant_potential(0.3)], t, proxy_of)
        constant_margin_dev = max(
            constant_margin_dev, abs(rep_const["margins"][0]["margin"])
        )

    # Bowen-consistency on the constant-potential cases
    worst_residual = 0.0
    one_point = zoo.make_finite_system([[0.0]], [0], name="one_point")
    f1 = constant_potential(1.5)
    t1 = build_table(one_point, one_point.points, 3, [f1])
    d1 = Dictionary((make_dict_member(t1, f1, eps_list, list(N_RANGE)),))
    from meandim.variational import FinMeasure

    rep1 = bowen_root_consistency(
        FinMeasure((0,), (1.0,)), f1, 0.0, d1, t1, budget=1e-9
    )
    worst_residual = max(worst_residual, rep1["residual"])

    shift = make_full_shift(2, 9)
    c = 0.75
    fc = constant_potential(c)
    z = zoo.zero_potential()
    ts = build_table(shift, enumerate_words(2, 9), 3, [fc, z])
    shift_eps = [2.0**-2, 2.0**-3, 2.0**-4]
    s0 = bowen_root(ts, fc, shift_eps, list(N_RANGE), tol=1e-12)
    d0 = Dictionary((make_dict_member(ts, z, shift_eps, list(N_RANGE)),))
    member_root = make_dict_member(
        ts, zoo.scaled_potential(fc, -s0), shift_eps, list(N_RANGE)
    )
    res_root = maxmin_variational(
        Dictionary((member_root,)), zoo.scaled_potential(fc, -s0), ts, [0, 1, 2]
    )
    rep2 = bowen_root_consistency(res_root.measure, fc, s0, d0, ts, budget=1e-9)
    worst_residual = max(worst_residual, rep2["residual"])

    _report(
        8,
        "equilibrium suite: candidate midpoints optimal, tangent margins >= 0 "
        "at eta = 0 under the shared dictionary functional, root consistency "
        "on constant potentials",
        midpoint_ok
        and tangent_violations == 0
        and constant_margin_dev <= 1e-9
        and worst_residual <= 1e-9,
        f"{tangent_violations} tangent violations, constant-margin dev "
        f"{constant_margin_dev:.2e}, root residual {worst_residual:.2e} <= 1e-9",
    )


ACCEPTANCE_CONFIGS = {
    "estimate": {
        "system": {"kind": "full_shift", "m": 2, "L": 8},
        "potential": {"kind": "first_coord", "params": {}},
        "sample": {"exhaustive": True},
        "eps_list": [2.0**-3, 2.0**-4, 2.0**-5],
        "n_range": [1, 2, 3],
    },
    "verify": {
        "system": {"kind": "finite_random", "size": 5, "seed": 19},
        "potential": {"kind": "table_random", "params": {"seed": 4}},
        "sample": {"exhaustive": True},
        "eps_list": [0.5, 0.35, 0.2],
        "n_range": [1, 2, 3],
        "verify": {"seed": 3, "draws": 10, "n": 2, "eps": 0.35},
    },
    "variational": {
        "system": {"kind": "finite_random", "size": 6, "seed": 23},
        "potential": {"kind": "table_random", "params": {"seed": 5}},
        "sample": {"exhaustive": True},
        "eps_list": [0.5, 0.35, 0.2],
        "n_range": [1, 2, 3],
        "dictionary": {
            "sources": [{"kind": "table_random", "params": {"seed": 6}}],
        },
        "tolerances": {"tau_a": 0.05},
    },
    "bowen": {
        "system": {"kind": "one_point"},
        "potential": {"kind": "constant", "params": {"value": 2.0}},
        "sample": {"exhaustive": True},
        "eps_list": [0.5, 0.25, 0.125],
        "n_range": [1, 2, 3],
        "bowen": {"tol": 1e-11},
    },
}


def test_criterion_9_deterministic_outputs(tmp_path):
    mismatches = []
    for command, cfg in ACCEPTANCE_CONFIGS.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{command}_{run}"
            code = cli_main([command, str(cfg_path), "--out", str(out)])
            assert code == 0, f"{command} exited {code}"
            blob = {}
            for fname in ("runs.csv", "summary.json", "report.json"):
                p = out / fname
                if p.exists():
                    blob[fname] = p.read_bytes()
            blobs.append(blob)
        if blobs[0] != blobs[1]:
            mismatches.append(command)
    _report(
        9,
        "byte-identical CSV/JSON across repeated runs of every acceptance config",
        not mismatches,
        f"commands checked: {', '.join(ACCEPTANCE_CONFIGS)}"
        + (f"; MISMATCH in {mismatches}" if mismatches else ""),
    )
