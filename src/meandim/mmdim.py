"""Growth rates in n, slopes in log(1/eps), and the pressure-property suite.

The limit object being estimated is a double limit (n to infinity, then
eps to 0); neither is reachable, so the estimator reports *both* a
max/min ratio over the declared eps window and a regression slope of the
per-eps growth rate against log(1/eps), each with diagnostics, never one
unqualified number.

An eps is flagged under-resolved when the sample cannot even cover
itself at eps/2 (greedy net size == the number of distinct sample
points); such eps are excluded from the slope fit because their counts
saturate at the sample size and drag the slope down.  Ratios and proxies
stay window-wide as defined.

``estimate_mmdim`` optionally takes an exact source
``log_pressure(h, n, eps)`` (closed-form pressure curves from the oracle
module), called with the potential it is estimating; the regression and
proxy layer is identical either way.
"""

from dataclasses import dataclass
import math

import numpy as np

from .numerics import linear_fit, logsumexp
from .orbit_engine import OrbitTable
from .pressure import greedy_separated, greedy_witness
from .system_zoo import Potential


@dataclass(frozen=True)
class MmdimEstimate:
    """Per-eps growth rates, ratios, proxies and fit diagnostics."""

    eps_list: tuple
    v_lower: tuple
    ratios: tuple
    slope: float
    upper_proxy: float
    lower_proxy: float
    diagnostics: dict
    pressures: tuple  # per eps, the greedy PressureValue of each sorted n; () with a source

    @property
    def error_budget(self) -> float:
        """Ratio-scale residual budget: max per-eps fit rms / log(1/eps)."""
        per = self.diagnostics["per_eps"]
        return max(d["rms"] / math.log(1.0 / d["eps"]) for d in per)


def _validate_windows(eps_list, n_range, n_max=None):
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise ValueError("need at least 3 eps values")
    if any(not 0.0 < e < 1.0 for e in eps_list):
        raise ValueError("eps values must lie in (0,1)")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if any(math.log(1.0 / a) >= math.log(1.0 / b) for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be distinct in float log(1/eps)")
    n_range = [int(n) for n in n_range]
    if len(set(n_range)) < 3:
        raise ValueError("need at least 3 distinct n values")
    if any(n < 1 for n in n_range):
        raise ValueError("n values must be >= 1")
    if n_max is not None and max(n_range) > n_max:
        raise ValueError("n_range exceeds the table's n_max")
    return eps_list, sorted(set(n_range))


def net_size(t: OrbitTable, eps: float) -> int:
    """Size of the greedy eps-net of the sample under d_1 (index order),
    memoised by the table (``OrbitTable.net_size``)."""
    return t.net_size(eps)


def estimate_mmdim(t: OrbitTable, f: Potential, eps_list, n_range,
                   log_pressure=None) -> MmdimEstimate:
    """Estimate upper/lower metric mean dimension proxies for f.

    Parameters
    ----------
    t : OrbitTable
        Sample table (also supplies net sizes for resolution flags).
    f : Potential
    eps_list : strictly decreasing values in (0,1), length >= 3.
    n_range : at least 3 distinct orbit lengths within the table.
    log_pressure : optional exact source (h, n, eps) -> log pressure of
        the potential h; when given it is called with f and replaces the
        greedy table path (all eps count as resolved, since the source is
        not sample-limited).
    """
    if t is None and log_pressure is None:
        raise ValueError("need an orbit table or an exact source")
    eps_list, n_values = _validate_windows(
        eps_list, n_range, None if log_pressure else t.n_max
    )
    per_eps, v_low, ratios, pressures = [], [], [], []
    for eps in eps_list:
        log_inv = math.log(1.0 / eps)
        if log_pressure is not None:
            ys = [float(log_pressure(f, n, eps)) for n in n_values]
            wit_sizes = {}
            resolved = True  # the source is not sample-limited
            nsz = None
        else:
            vals = tuple(greedy_separated(t, f, n, eps) for n in n_values)
            pressures.append(vals)
            ys = [p.log_value for p in vals]
            wit_sizes = {n: len(p.witness) for n, p in zip(n_values, vals)}
            nsz = net_size(t, eps / 2.0)
            resolved = bool(nsz < t.distinct or t.distinct == 1)
        slope, _, rms = linear_fit(n_values, ys)
        v_low.append(slope)
        ratios.append(slope / log_inv)
        per_eps.append(
            {
                "eps": eps,
                "v": slope,
                "ratio": slope / log_inv,
                "rms": rms,
                "resolved": resolved,
                "net_size_half_eps": nsz,
                "witness_sizes": wit_sizes,
                "log_pressure": dict(zip(map(str, n_values), ys)),
            }
        )

    used = [i for i, d in enumerate(per_eps) if d["resolved"]]
    if len(used) < 2:
        used = list(range(len(eps_list)))
    xs = [math.log(1.0 / eps_list[i]) for i in used]
    ys = [v_low[i] for i in used]
    slope, _, slope_rms = linear_fit(xs, ys)

    return MmdimEstimate(
        eps_list=tuple(eps_list),
        v_lower=tuple(v_low),
        ratios=tuple(ratios),
        slope=slope,
        upper_proxy=max(ratios),
        lower_proxy=min(ratios),
        diagnostics={
            "per_eps": per_eps,
            "n_range": n_values,
            "sample_size": t.size if t is not None else None,
            "backend": "injected" if log_pressure is not None else "table",
            "slope_eps_used": [eps_list[i] for i in used],
            "slope_rms": slope_rms,
        },
        pressures=tuple(pressures),
    )


# ---------------------------------------------------------------------------
# finite-level property checks (common witness)
# ---------------------------------------------------------------------------


def check_properties(t: OrbitTable, f: Potential, g: Potential,
                     c: float, p: float, eps: float, n: int) -> dict:
    """Exact finite-level counterparts of the pressure-sum properties.

    All items are evaluated on one common witness set F (the greedy
    maximal separated set for f at (n, eps)), in log space.  Conditional
    items record applicability.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    log_inv = math.log(1.0 / eps)
    F = greedy_witness(t, f, n, eps)
    # each table is read once, so two unregistered potentials build two
    bf, bg = t.birkhoff(f), t.birkhoff(g)
    sf, sg = bf[F, n], bg[F, n]
    ls = lambda arr: logsumexp(np.asarray(arr) * log_inv)
    lsf, lsg = ls(sf), ls(sg)

    fv, gv = np.diff(bf, axis=1), np.diff(bg, axis=1)
    report = {"witness": list(F), "n": n, "eps": eps, "items": {}}
    items = report["items"]

    f_le_g = bool(np.all(fv <= gv + 1e-15))
    items["1_monotone"] = {
        "applicable": f_le_g,
        "ok": bool(lsf <= lsg + 1e-12) if f_le_g else None,
        "lhs": lsf,
        "rhs": lsg,
    }

    shifted = ls(sf + n * c)
    delta2 = shifted - (lsf + n * c * log_inv)
    items["2_additive_constant"] = {
        "applicable": True,
        "ok": bool(abs(delta2) <= 1e-10),
        "deviation": delta2,
    }

    sup_diff = float(np.max(np.abs(fv - gv)))
    items["5a_lipschitz"] = {
        "applicable": True,
        "ok": bool(abs(lsf - lsg) <= n * sup_diff * log_inv + 1e-12),
        "lhs": abs(lsf - lsg),
        "rhs": n * sup_diff * log_inv,
    }

    mixed = ls(p * sf + (1.0 - p) * sg)
    items["5b_convexity"] = {
        "applicable": True,
        "ok": bool(mixed <= p * lsf + (1.0 - p) * lsg + 1e-12),
        "lhs": mixed,
        "rhs": p * lsf + (1.0 - p) * lsg,
    }

    terms_ge_one = bool(np.min(sf) >= 0.0 and np.min(sg) >= 0.0)
    items["6_subadditive"] = {
        "applicable": terms_ge_one,
        "ok": bool(ls(sf + sg) <= lsf + lsg + 1e-12) if terms_ge_one else None,
        "lhs": ls(sf + sg),
        "rhs": lsf + lsg,
    }

    # normalized weights a_i sum to 1; the power-sum sign decides the item
    log_a = sf * log_inv - lsf
    power_sum = logsumexp(c * log_a)
    if c >= 1.0:
        ok7 = bool(power_sum <= 1e-12 and ls(c * sf) <= c * lsf + 1e-12)
    else:
        ok7 = bool(power_sum >= -1e-12 and ls(c * sf) >= c * lsf - 1e-12)
    items["7_scaling"] = {
        "applicable": True,
        "ok": ok7,
        "c": c,
        "normalized_power_logsum": power_sum,
    }

    report["ok"] = all(it["ok"] for it in items.values() if it["applicable"])
    return report
