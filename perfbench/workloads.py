"""The benchmark's workloads: one generated config and one correctness gate each.

A workload is one ``meandim`` batch command on one config.  ``config``
builds the config from the benchmark's seed (only estimate-grid uses it:
the seed generates its sample seed), and ``gate`` checks a finished
command's result files against exact references, returning one message
per violated check.  Each workload has a full size, which the benchmark
measures, and a tiny smoke size for the benchmark's own tests.
"""

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable


def _shift(L):
    return {"kind": "full_shift", "m": 2, "L": L}


def _first_coord(**params):
    return {"kind": "first_coord", "params": params}


def _dyadic(*ks):
    return [2.0**-k for k in ks]


def _read_runs(out_dir):
    with open(os.path.join(out_dir, "runs.csv"), newline="") as fh:
        next(fh)  # schema comment line
        return list(csv.DictReader(fh))


def _read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


# -- estimate-shift ----------------------------------------------------------

def estimate_shift_config(seed, smoke):
    L, ks, n_max = (7, (2, 3, 4), 3) if smoke else (12, (4, 5, 6), 4)
    return {
        "system": _shift(L),
        "potential": _first_coord(),
        "sample": {"exhaustive": True},
        "eps_list": _dyadic(*ks),
        "n_range": list(range(1, n_max + 1)),
    }


def estimate_shift_gate(cfg, out_dir):
    """Exhaustive full shift: the greedy count is the exact transfer pressure."""
    from meandim.oracle import transfer_pressure

    bad = []
    for row in _read_runs(out_dir):
        n, eps = int(row["n"]), float(row["eps"])
        exact = transfer_pressure(2, [0.0, 1.0], n, round(-math.log2(eps)), eps)
        if not abs(float(row["log_P_lower"]) - exact) <= 1e-9:
            bad.append(f"log_P_lower(n={n}, eps={eps}) = {row['log_P_lower']} != {exact}")
    return bad


# -- estimate-grid -----------------------------------------------------------

def estimate_grid_config(seed, smoke):
    L, count, n_max = (5, 80, 3) if smoke else (10, 1200, 4)
    return {
        "system": {"kind": "grid_shift", "D": 2, "m": 9, "L": L},
        "potential": {"kind": "constant", "params": {"value": 0.0}},
        "sample": {"count": count, "seed": random.Random(seed).randrange(2**32)},
        "eps_list": [0.2, 0.1, 0.05],
        "n_range": list(range(1, n_max + 1)),
    }


def estimate_grid_gate(cfg, out_dir):
    """Sampled grid shift: a separated lower bound never exceeds the exact count."""
    from meandim.oracle import grid_count_log_pressure

    D, m = cfg["system"]["D"], cfg["system"]["m"]
    bad = []
    for row in _read_runs(out_dir):
        n, eps = int(row["n"]), float(row["eps"])
        exact = grid_count_log_pressure(D, m, n, eps)
        if not float(row["log_P_lower"]) <= exact + 1e-9:
            bad.append(f"log_P_lower(n={n}, eps={eps}) = {row['log_P_lower']} > {exact}")
    return bad


# -- variational-shift -------------------------------------------------------

def variational_shift_config(seed, smoke):
    L, ks, n_max = (5, (2, 3, 4), 3) if smoke else (7, (2, 3, 4), 3)
    return {
        "system": _shift(L),
        "potential": _first_coord(offset=1.0),
        "sample": {"exhaustive": True},
        "dictionary": {
            "sources": [
                _first_coord(scale=2.0),
                {"kind": "constant", "params": {"value": 0.5}},
            ]
        },
        "eps_list": _dyadic(*ks),
        "n_range": list(range(1, n_max + 1)),
    }


def variational_shift_gate(cfg, out_dir):
    """Exact game certificates, sandwich flags, monotone growth, closed-form m_hat."""
    r = _read_report(out_dir)
    bad = []
    if r["duality_gap"] != 0 or r["slack_residual"] != 0:
        bad.append(f"gap {r['duality_gap']} / slack {r['slack_residual']} not exactly 0")
    sandwich = r["sandwich"]
    if not (sandwich["singleton_matches_m_hat"] and sandwich["value_le_m_hat"]):
        bad.append(f"sandwich flags false: {sandwich}")
    support = [g["value"] for g in r["support_growth"]]
    if any(a > b for a, b in zip(support, support[1:])):
        bad.append("support_growth decreases")
    members = [g["value"] for g in r["dictionary_growth"]]
    if any(a < b for a, b in zip(members, members[1:])):
        bad.append("dictionary_growth increases")
    # f = 1 + first letter: per-step pressure log(1/eps + 1/eps^2)
    m_hat = max(math.log(1 / e + 1 / e**2) / math.log(1 / e) for e in cfg["eps_list"])
    if not abs(sandwich["m_hat"] - m_hat) <= 1e-9:
        bad.append(f"m_hat {sandwich['m_hat']} != {m_hat}")
    return bad


# -- bowen-shift -------------------------------------------------------------

def bowen_shift_config(seed, smoke):
    L, n_max = (7, 3) if smoke else (10, 4)
    return {
        "system": _shift(L),
        "potential": _first_coord(offset=1.0),
        "sample": {"exhaustive": True},
        "eps_list": _dyadic(3, 4, 5),
        "n_range": list(range(1, n_max + 1)),
        "bowen": {"tol": 1e-10},
    }


def bowen_shift_gate(cfg, out_dir):
    """Closed-form root at the largest eps, reached within the tolerance."""
    r = _read_report(out_dir)
    eps, tol = cfg["eps_list"][0], cfg["bowen"]["tol"]
    # f = 1 + first letter: eps^s + eps^(2s) = 1 at the root
    s0 = math.log((math.sqrt(5) - 1) / 2) / math.log(eps)
    bad = []
    if not abs(r["s0"] - s0) <= 1e-8:
        bad.append(f"s0 {r['s0']} != {s0}")
    if not (r["trace"] and abs(r["trace"][-1]["proxy"]) <= tol):
        bad.append("last bisection proxy above tol")
    return bad


@dataclass(frozen=True)
class Workload:
    command: str
    config: Callable[[int, bool], dict]
    gate: Callable[[dict, str], list]
    seeded: bool = False


WORKLOADS = {
    "estimate-shift": Workload("estimate", estimate_shift_config, estimate_shift_gate),
    "estimate-grid": Workload("estimate", estimate_grid_config, estimate_grid_gate, seeded=True),
    "variational-shift": Workload("variational", variational_shift_config, variational_shift_gate),
    "bowen-shift": Workload("bowen", bowen_shift_config, bowen_shift_gate),
}
