"""Batch front door: estimate | verify | variational | bowen.

One JSON config in, deterministic CSV/JSON out.  No flag overrides any
config value except the output directory, so an emitted table is fully
reproducible from its config.  A command maps the checked config to its
exit code and its result files, ``{name: payload}``, and ``main`` writes
them with ``_write``, which checks every JSON payload before it opens a
file, so a NaN or an infinity leaves no file.  Exit codes: 0 success, 2
config error, 3 assertion failure inside verify, 4 a certificate, bracket
or member tolerance that the run cannot meet, or a NaN or infinite result
(stderr names the file and the field).

Import rule: the package root loads nothing, and this module imports every
layer at its top, all that the benchmark's tracer wraps.  The SHA-256
of estimate's witness hash comes from CPython's own module (``_sha2``,
``_sha256`` before 3.12), not ``hashlib``, which would load OpenSSL for
it; that module and ``oracle``, used only by verify, are imported where
they are used, so the other commands load neither.

Process rule: ``main()``, the entry that owns the process (``python -m
meandim.cli`` and the ``meandim`` script), freezes the import-time heap
(``gc.freeze()``) before it parses its arguments, so no later full
collection, the one at exit included, walks the objects that the numpy and
meandim imports leave.  ``main(argv)`` leaves the collector as it finds it,
and importing this module freezes nothing.
"""

import argparse
import csv
import gc
import json
import math
import os
import sys

import numpy as np

from . import system_zoo as zoo
from .config import EXHAUSTIVE_CAP, ConfigError, build_potential, build_sample, build_system, load_config
from .mmdim import check_properties, estimate_mmdim
from .orbit_engine import build_table
from .pressure import check_sandwich
from .simplex import CertificateError, solve_matrix_game, solve_prefix_games
from .variational import (
    BracketError,
    Dictionary,
    MemberRejectedError,
    bowen_root,
    bowen_root_consistency,
    equilibrium_candidates,
    make_dict_member,
    maxmin_variational,
    measure_dimension,
    sampled_min,
    tangent_check,
)

CSV_HEADER_COMMENT = "# meandim runs.csv schema v1"
CSV_FIELDS = [
    "system",
    "potential",
    "n",
    "eps",
    "log_P_lower",
    "log_Q_upper",
    "v",
    "ratio",
    "witness_size",
    "witness_hash",
]


def _witness_hash(witness) -> str:
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # a build without it: hashlib, through OpenSSL
        from hashlib import sha256

    blob = ",".join(map(str, witness)).encode()
    return sha256(blob).hexdigest()[:12]


class NonFiniteError(ValueError):
    """A result value that is NaN or infinite: no file is left holding it."""


def _check_finite(name: str, value, field=""):
    """Raise NonFiniteError at the first NaN or infinity in ``value``,
    naming the file ``name`` and the field's key path."""
    if isinstance(value, float) and not math.isfinite(value):
        raise NonFiniteError(f"{name} field {field} is {value}, not finite")
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, (list, tuple)) else ()
    for key, item in items:
        _check_finite(name, item, f"{field}.{key}" if field else str(key))


def _write(out: str, files: dict):
    """Write the result ``files`` into ``out``, made if missing: JSON sorted
    and indented, ``runs.csv``'s rows under its schema comment.  Every JSON
    payload is checked first: a NaN or an infinity raises NonFiniteError
    before any file is opened."""
    os.makedirs(out, exist_ok=True)
    for name, payload in files.items():
        if name.endswith(".json"):
            _check_finite(name, payload)
    for name, payload in files.items():
        path = os.path.join(out, name)
        if name.endswith(".json"):
            with open(path, "w") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
                fh.write("\n")
        else:
            with open(path, "w", newline="") as fh:
                fh.write(CSV_HEADER_COMMENT + "\n")
                writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
                writer.writeheader()
                writer.writerows(payload)


def _check_out(out: str):
    """Reject, before the run, an output directory that cannot be made."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK)):
        raise ConfigError(f"config key out: cannot make {out!r}: {path} is not a writable directory")


def _prepare(cfg: dict):
    system = build_system(cfg["system"])
    potential = build_potential(cfg["potential"], system)
    table = build_table(system, build_sample(cfg, system), max(cfg["n_range"]), [potential])
    return system, potential, table


def cmd_estimate(cfg: dict) -> tuple:
    system, potential, table = _prepare(cfg)
    n_range = cfg["n_range"]
    est = estimate_mmdim(table, potential, cfg["eps_list"], n_range)

    rows = []
    for eps, v, ratio, cells in zip(est.eps_list, est.v_lower, est.ratios, est.pressures):
        # the maximal separated witness also spans, so it gives both bounds
        for lower in cells:
            rows.append(
                {
                    "system": system.name,
                    "potential": potential.name,
                    "n": lower.n,
                    "eps": repr(eps),
                    "log_P_lower": repr(lower.log_value),
                    "log_Q_upper": repr(lower.log_value),
                    "v": repr(v),
                    "ratio": repr(ratio),
                    "witness_size": len(lower.witness),
                    "witness_hash": _witness_hash(lower.witness),
                }
            )

    summary = {
        "system": system.name,
        "potential": potential.name,
        "eps_list": list(est.eps_list),
        "n_range": sorted(set(n_range)),
        "v": list(est.v_lower),
        "ratios": list(est.ratios),
        "slope": est.slope,
        "upper_proxy": est.upper_proxy,
        "lower_proxy": est.lower_proxy,
        "diagnostics": est.diagnostics,
    }
    return 0, {"summary.json": summary, "runs.csv": rows}


def cmd_verify(cfg: dict) -> tuple:
    from .oracle import SUBSET_LIMIT, exact_pressure

    system, potential, table = _prepare(cfg)
    seed, draws, n, eps = (cfg["verify"][k] for k in ("seed", "draws", "n", "eps"))
    rng = np.random.default_rng(seed)

    results, oracle = [], {}  # exact pairs by potential: a shift's draws share one f
    oracle_ok = table.size <= SUBSET_LIMIT
    for i in range(draws):
        if system.points is not None:
            f = zoo.random_table_potential(system, seed=seed + 1000 + i)
            g_extra = zoo.random_table_potential(system, seed=seed + 2000 + i, low=0.0)
            g = zoo.sum_potentials(f, g_extra)
        else:
            f = potential
            g = zoo.shifted_potential(potential, abs(float(rng.uniform(0, 1))))
        c = float(rng.uniform(-2, 2))
        p = float(rng.uniform(0, 1))
        if oracle_ok and f not in oracle:
            oracle[f] = (exact_pressure(table, f, n, eps), exact_pressure(table, f, n, eps / 2.0))
        sandwich = check_sandwich(table, f, n, eps, oracle=oracle.get(f))
        props = check_properties(table, f, g, c, p, eps, n)
        results.append(
            {
                "draw": i,
                "sandwich_ok": sandwich["ok"],
                "properties_ok": props["ok"],
                "sandwich": sandwich,
                "properties": props,
            }
        )

    ok = all(r["sandwich_ok"] and r["properties_ok"] for r in results)
    failures = [r for r in results if not (r["sandwich_ok"] and r["properties_ok"])]
    report = {
        "command": "verify",
        "ok": ok,
        "draws": draws,
        "failures": failures,
        "results": [{k: r[k] for k in ("draw", "sandwich_ok", "properties_ok")} for r in results],
    }
    return 0 if ok else 3, {"report.json": report}


def cmd_variational(cfg: dict) -> tuple:
    # the equilibrium candidates are quadratic in N: check before the build
    if cfg["sample"].get("count", 0) > EXHAUSTIVE_CAP:
        raise ConfigError(f"config key sample.count: variational takes at most "
                          f"{EXHAUSTIVE_CAP} points, got {cfg['sample']['count']}")
    system, potential, table = _prepare(cfg)
    eps_list, n_range = cfg["eps_list"], cfg["n_range"]
    tau_a = cfg["tolerances"]["tau_a"]
    sources = [potential] + [build_potential(spec, system) for spec in cfg["dictionary"]["sources"]]

    members, certificates = [], []
    for f in sources:
        member = make_dict_member(table, f, eps_list, n_range, tau_a=tau_a)
        members.append(member)
        certificates.append(
            {
                "source": f.name,
                "m_hat": member.m_hat,
                "certificate_proxy": member.certificate.upper_proxy,
                "tau_a": tau_a,
            }
        )

    support = list(range(table.size))
    dictionary = Dictionary(tuple(members))
    res = maxmin_variational(dictionary, potential, table, support)
    m_hat = members[0].m_hat

    # convergence direction: value is non-increasing in dictionary growth
    # (the game's row prefixes), non-decreasing in support growth (its
    # column prefixes); only each prefix's exact value is kept
    dictionary_growth = [
        {"members": k, "value": float(solve_matrix_game(res.matrix[:k]).value)}
        for k in range(1, len(members))
    ] + [{"members": len(members), "value": res.value}]
    singleton_value = dictionary_growth[0]["value"]
    sweep = [sol.value for sol in solve_prefix_games(res.matrix)]
    if sweep[-1] != res.solution.value:
        raise CertificateError(
            f"support sweep ends at {sweep[-1]}, the full game at {res.solution.value}"
        )
    support_rows = [
        {"support_size": k, "value": float(value)}
        for k, value in enumerate(sweep, start=1)
    ]

    candidates = equilibrium_candidates(res)
    perturbations = [m.source for m in members[1:]] or [zoo.constant_potential(0.25)]

    def value_functional(h):
        if h is potential:
            return res.value
        return maxmin_variational(dictionary, h, table, support).value

    tangent = tangent_check(res.measure, potential, perturbations, table, value_functional)

    # root of s -> proxy(-s f) belongs to this report when f is positive
    root_trace, s0 = [], None
    min_f = sampled_min(table, potential)
    if min_f > 0.0:
        s0 = bowen_root(
            table, potential, eps_list, n_range, tol=cfg["bowen"]["tol"], trace=root_trace, min_f=min_f
        )

    report = {
        "command": "variational",
        "dictionary_certificates": certificates,
        "maxmin_value": res.value,
        "duality_gap": float(res.solution.gap),
        "slack_residual": float(res.solution.slack_residual),
        "optimizer_support": list(res.measure.support),
        "optimizer_weights": list(res.measure.weights),
        "bowen_root": {"s0": s0, "trace": root_trace},
        "sandwich": {
            "m_hat": m_hat,
            "singleton_value": singleton_value,
            "singleton_matches_m_hat": bool(abs(singleton_value - m_hat) <= 1e-9),
            "value_le_m_hat": bool(res.value <= m_hat + 1e-9),
        },
        "dictionary_growth": dictionary_growth,
        "support_growth": support_rows,
        "equilibrium_candidates": [
            {"support": list(c.support), "weights": list(c.weights)}
            for c in candidates
        ],
        "tangent_margins": tangent["margins"],
        "measure_dimension_of_optimizer": measure_dimension(
            dictionary, res.measure, table
        ),
    }
    return 0, {"report.json": report}


def cmd_bowen(cfg: dict) -> tuple:
    system, potential, table = _prepare(cfg)
    eps_list, n_range, tol = cfg["eps_list"], cfg["n_range"], cfg["bowen"]["tol"]
    min_f = sampled_min(table, potential)
    if min_f <= 0.0:
        raise ConfigError(
            f"config key potential: bowen needs a positive potential, "
            f"{potential.name!r} has sampled minimum {min_f}"
        )

    trace = []
    s0 = bowen_root(table, potential, eps_list, n_range, tol=tol, trace=trace, min_f=min_f)

    zero = zoo.zero_potential()
    tau_a = cfg["tolerances"]["tau_a"]
    member_zero = make_dict_member(table, zero, eps_list, n_range, tau_a=tau_a)
    root_pot = zoo.scaled_potential(potential, -s0)
    member_root = make_dict_member(table, root_pot, eps_list, n_range, tau_a=tau_a)
    res = maxmin_variational(Dictionary((member_root,)), root_pot, table, list(range(table.size)))
    consistency = bowen_root_consistency(
        res.measure, potential, s0, Dictionary((member_zero,)), table,
        budget=member_zero.certificate.error_budget + tol,
    )

    report = {
        "command": "bowen",
        "s0": s0,
        "tolerance": tol,
        "trace": trace,
        "consistency": consistency,
    }
    return 0, {"report.json": report}


COMMANDS = {
    "estimate": cmd_estimate,
    "verify": cmd_verify,
    "variational": cmd_variational,
    "bowen": cmd_bowen,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meandim",
        description="pressure counting and mean-dimension estimation runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON run config")
        p.add_argument("--out", help="output directory (overrides config)")
    if argv is None:  # the process entry: what the imports left lives to the exit
        gc.freeze()
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = args.out or cfg["out"]
        _check_out(out)
        # a NaN or infinity is reported once, as the result field it reaches
        with np.errstate(all="ignore"):
            code, files = COMMANDS[args.command](cfg)
        _write(out, files)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MemberRejectedError, BracketError, CertificateError, NonFiniteError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
