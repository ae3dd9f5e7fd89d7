"""Weighted pressure sums over separated/spanning sets under Bowen metrics.

The central quantity is the log of  sum_x (1/eps)^(S_n f(x))  over a
witness set.  A maximal (n,eps)-separated subset of the sample is built
greedily in descending S_n f order; the same witness, being maximal,
covers the sample within radius eps, so one construction yields both a
lower bound on the sample-restricted sup over separated sets and an
upper bound on the inf over spanning sets.  The sup/inf themselves are
not constructive, so every value carries its bound kind, and small
instances are certified against the exhaustive oracle module.

All sums are in natural-log space with max-shift; eps is restricted to
(0,1) so log(1/eps) > 0.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .numerics import logsumexp
from .orbit_engine import OrbitTable
from .system_zoo import Potential, gamma


@dataclass(frozen=True, eq=False)
class PressureValue:
    """A log-space weighted count with the witness that produced it.

    kind is 'separated_lower' or 'spanning_upper': which side of the
    sup/inf the value bounds.  ``witness`` is the table's read-only
    ascending intp array, held as it is.
    """

    log_value: float
    n: int
    eps: float
    kind: str
    witness: np.ndarray


def log_sum(t: OrbitTable, f: Potential, witness, n: int, eps: float,
            shift: float = 0.0) -> float:
    """log sum over ``witness`` of (1/eps)^(S_n f - shift), in witness order.

    A greedy witness is already an intp array and gathers as it is; any
    other index sequence (an oracle's tuple) is converted once."""
    s = t.birkhoff(f)[:, n][np.asarray(witness, dtype=np.intp)]
    return logsumexp((s - shift) * math.log(1.0 / eps))


def _check_eps(eps: float):
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0,1), got {eps}")


def greedy_witness(t: OrbitTable, f: Potential, n: int, eps: float) -> np.ndarray:
    """Maximal (n,eps)-separated subset, greedy by descending S_n f.

    Ties break by sample index (stable sort), so the witness is
    deterministic.  A scaled or shifted potential is ordered by its base's
    sums (``Potential.order``), so the base's exact ties stay ties: the
    witness of -s f is the same at every s > 0, and the table's memo
    (``OrbitTable.witness``) builds it once for a registered base.
    Maximality makes the witness an eps-cover of the sample as well.  It
    is a read-only intp array of the kept indices in ascending order: the
    log-sum then matches the oracle's summation order bitwise when the
    sets coincide.
    """
    _check_eps(eps)
    if t.size == 0:
        raise ValueError("empty sample")
    base, sign = f.order or (f, 1.0)
    return t.witness(base, sign, n, eps)


def greedy_separated(t: OrbitTable, f: Potential, n: int, eps: float) -> PressureValue:
    """Lower bound on the exact sample-restricted separated-sup pressure."""
    kept = greedy_witness(t, f, n, eps)
    return PressureValue(
        log_value=log_sum(t, f, kept, n, eps),
        n=n,
        eps=eps,
        kind="separated_lower",
        witness=kept,
    )


def spanning_from_separated(t: OrbitTable, f: Potential, n: int, eps: float) -> PressureValue:
    """Upper bound on the exact sample-restricted spanning-inf pressure.

    Reuses the maximal separated witness, which covers the sample at
    radius eps; only the bound interpretation differs from
    greedy_separated.
    """
    return replace(greedy_separated(t, f, n, eps), kind="spanning_upper")


def check_sandwich(t: OrbitTable, f: Potential, n: int, eps: float, oracle=None) -> dict:
    """Finite-level sandwich checks between separated and spanning sums.

    (a) spanning-inf <= separated-sup at the same eps, run on an exact
        oracle pair (greedy bounds share one witness, so they would only
        compare a value with itself).
    (b) With E covering the sample at eps/2 and F (n,eps)-separated:
            log sum_E (2/eps)^(S_n f)
            >= log sum_F (1/eps)^(S_n f - n*gamma(eps)) - n*||f||*log 2,
        where gamma(eps) = lip(f) * eps.  This holds for every valid
        (E, F) pair, so a failure indicts the witnesses, not the bound.

    ``oracle``: optional pair of ExactPressure values (at eps and eps/2)
    from the oracle module; exact witnesses are then used for both
    checks.

    Returns a report dict; report['ok'] is the conjunction.
    """
    _check_eps(eps)
    _check_eps(eps / 2.0)
    report = {"n": n, "eps": eps, "checks": {}}

    if oracle is not None:
        at_eps, at_half = oracle
        q_le_p = at_eps.exact_log_q <= at_eps.exact_log_p + 1e-9
        report["checks"]["spanning_le_separated"] = {
            "ok": bool(q_le_p),
            "log_q": at_eps.exact_log_q,
            "log_p": at_eps.exact_log_p,
        }
        e_witness = at_half.argmin_spanning
        f_witness = at_eps.argmax_separated
    else:
        e_witness = greedy_witness(t, f, n, eps / 2.0)
        f_witness = greedy_witness(t, f, n, eps)

    if not t.spans(e_witness, n, eps / 2.0):
        raise AssertionError("E witness does not cover the sample at eps/2")
    if not t.is_separated(f_witness, n, eps):
        raise AssertionError("F witness is not (n,eps)-separated")

    modulus = gamma(f, eps)
    lhs = log_sum(t, f, e_witness, n, eps / 2.0)
    rhs = log_sum(t, f, f_witness, n, eps, shift=n * modulus) - n * f.sup_norm * math.log(2.0)
    ok_b = lhs >= rhs - 1e-9
    report["checks"]["cover_dominates_separated"] = {
        "ok": bool(ok_b),
        "lhs": lhs,
        "rhs": rhs,
        "gamma": modulus,
        "e_witness": list(map(int, e_witness)),
        "f_witness": list(map(int, f_witness)),
    }
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report
