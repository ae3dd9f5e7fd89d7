"""The dual side: dictionaries, the measure functional, max-min, roots.

A dictionary member is built from a source potential h as
g = (estimated upper proxy of h) - h; by the additive-constant identity
the proxy of -g is then zero up to estimator noise, and the member ships
with that certificate.  Over a finite dictionary and finitely supported
measures,

    measure_dimension(D, mu) = min_{g in D} integral of g d(mu)

over-estimates the true measure functional (a finite dictionary shrinks
the inf), which the sandwich checks control: with the singleton
dictionary {g_f} the max-min value equals the proxy of f exactly, and
any dictionary containing g_f keeps the value at or below it.

The max-min over weights on a fixed support is a matrix game, solved
exactly in rational arithmetic (see simplex); the reported duality gap
is exact, not a tolerance.  ``maxmin_variational`` returns the game it
solved with its solution, so the dictionary sweep (its row prefixes),
the support sweep (its column prefixes, ``simplex.solve_prefix_games``,
which holds one checked solution until a new column class enters) and
``equilibrium_candidates`` all read that one matrix.
"""

from dataclasses import dataclass
from fractions import Fraction

from .config import BOWEN_TOL, TAU_A
from .mmdim import MmdimEstimate, estimate_mmdim
from .orbit_engine import OrbitTable
from .simplex import GameSolution, column_classes, solve_matrix_game
from .system_zoo import Potential, scaled_potential, shifted_potential, sum_potentials


class MemberRejectedError(ValueError):
    """Dictionary-membership certificate exceeded the tolerance."""


class BracketError(RuntimeError):
    """Root bracketing failed (no sign change or negative zero-proxy)."""


@dataclass(frozen=True)
class FinMeasure:
    """Finitely supported probability measure on sample indices."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError("support/weights length mismatch")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support indices must be distinct")
        if any(w < -1e-15 for w in self.weights):
            raise ValueError("negative weight")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (tol 1e-12)")

    def integrate(self, f: Potential, t: OrbitTable) -> float:
        values = t.point_values(f, self.support).tolist()
        return float(sum(w * v for w, v in zip(self.weights, values)))


@dataclass(frozen=True)
class DictMember:
    """A dictionary element with its numeric membership certificate."""

    g: Potential
    source: Potential
    m_hat: float
    certificate: MmdimEstimate


@dataclass(frozen=True)
class Dictionary:
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("dictionary must be nonempty")


def make_dict_member(t: OrbitTable, f: Potential, eps_list, n_range,
                     tau_a: float = TAU_A, log_pressure=None) -> DictMember:
    """Build g = m_hat - f with its near-zero certificate.

    The certificate estimates the proxy of -g = f - m_hat, which by the
    additive-constant identity equals proxy(f) - m_hat = 0 up to float
    accumulation; members beyond tau_a are rejected with diagnostics.
    An exact source ``log_pressure(h, n, eps)`` prices both f and f - m_hat.
    """
    if log_pressure is None:
        t.ensure_potential(f)  # the greedy order of f - m_hat reads f's sums
    est = estimate_mmdim(t, f, eps_list, n_range, log_pressure=log_pressure)
    m_hat = est.upper_proxy
    g = shifted_potential(scaled_potential(f, -1.0), m_hat)  # m_hat - f
    neg_g = shifted_potential(f, -m_hat)  # -g = f - m_hat
    cert = estimate_mmdim(t, neg_g, eps_list, n_range, log_pressure=log_pressure)
    if not abs(cert.upper_proxy) <= tau_a:  # a NaN proxy is rejected too
        raise MemberRejectedError(
            f"certificate proxy {cert.upper_proxy} exceeds tau_a={tau_a} "
            f"for source {f.name!r} (diagnostics: {cert.diagnostics})"
        )
    return DictMember(g=g, source=f, m_hat=m_hat, certificate=cert)


def measure_dimension(dictionary: Dictionary, mu: FinMeasure, t: OrbitTable) -> float:
    """min over members of the mu-average of g (upper bound on the true
    measure functional: the finite dictionary shrinks the infimum)."""
    return min(mu.integrate(m.g, t) for m in dictionary.members)


def game_matrix(dictionary: Dictionary, f: Potential, t: OrbitTable, support) -> list:
    """matrix[j][i] = (g_j + f)(support[i]) for member j: the max-min game.

    Row j depends on member j alone, so the rows [:k] are the game of the
    dictionary's first k members.
    """
    fv = t.point_values(f, support)
    return [(t.point_values(m.g, support) + fv).tolist() for m in dictionary.members]


@dataclass(frozen=True)
class MaxminResult:
    """The solved game: its matrix, its exact solution and the optimizer."""

    measure: FinMeasure
    solution: GameSolution
    matrix: list

    @property
    def value(self) -> float:
        return float(self.solution.value)


def maxmin_variational(dictionary: Dictionary, f: Potential, t: OrbitTable,
                       support) -> MaxminResult:
    """Exact max over weights on ``support`` of the min member average.

    Monotone: never increases when the dictionary grows, never decreases
    when the support grows.  The solution's duality gap and
    complementary-slackness residual are recomputed from the exact
    rational solve and are exactly 0 (``solve_matrix_game`` raises
    otherwise).  The result keeps the game's matrix, so its row and
    column prefixes can be solved without building it again.
    """
    support = list(support)
    if not support:
        raise ValueError("empty support")
    A = game_matrix(dictionary, f, t, support)
    sol = solve_matrix_game(A)
    mu = FinMeasure(tuple(support), tuple(float(w) for w in sol.p))
    return MaxminResult(measure=mu, solution=sol, matrix=A)


def equilibrium_candidates(res: MaxminResult, tol: float = 1e-9) -> list:
    """All vertex optimizers of the solved game ``res`` within tol, plus its optimum.

    The uniform measure is included when it achieves the value (it does
    whenever the objective is member-constant, e.g. singleton
    dictionaries).  Each returned measure is verified, exactly on its
    stored weights, to stay within tol of the value; the objective
    min_j (A p)_j is concave, so every midpoint of two returned measures
    does too -- the finite-level convexity sanity check.
    """
    support = res.measure.support
    reps, labels = column_classes(res.matrix)
    A = [[Fraction(row[i]) for i in reps] for row in res.matrix]
    floor = res.solution.value - Fraction(tol)
    k = len(support)

    def optimal(weights) -> bool:
        # equal columns pay alike, so each class is paid on its weight sum
        mass = [Fraction(0)] * len(reps)
        for c, w in zip(labels, weights):
            if w:
                mass[c] += Fraction(w)
        return min(sum(w * a for w, a in zip(mass, row)) for row in A) >= floor

    if not optimal(res.measure.weights):
        raise AssertionError("the solver optimum left the optimal set")
    out = [res.measure]
    seen = {tuple(round(w, 12) for w in res.measure.weights)}
    uniform = tuple(1.0 / k for _ in range(k))
    key = tuple(round(w, 12) for w in uniform)
    if key not in seen and optimal(uniform):
        out.append(FinMeasure(support, uniform))
        seen.add(key)
    # the objective at the vertex e_i is the minimum of column i's class
    tight = [min(col) >= floor for col in zip(*A)]
    for i in range(k):
        if tight[labels[i]]:
            vertex = tuple(1.0 if j == i else 0.0 for j in range(k))
            if vertex not in seen:
                out.append(FinMeasure(support, vertex))
                seen.add(vertex)
    return out


def tangent_check(mu: FinMeasure, f: Potential, perturbations, t: OrbitTable,
                  mdim_of) -> dict:
    """Increment bound per perturbation g under one functional M = ``mdim_of``:

        integral g d(mu)  <=  M(f + g) - M(f)

    Under the dictionary max-min value functional the bound is a theorem
    for the measure that attains M(f), so each row's ``eta`` (the slack
    the bound is allowed) is 0 and its ``ok`` asks margin >= -1e-12.
    """
    m_f = float(mdim_of(f))
    rows = []
    for g in perturbations:
        m_fg = float(mdim_of(sum_potentials(f, g)))
        integral = mu.integrate(g, t)
        margin = m_fg - m_f - integral
        rows.append(
            {
                "perturbation": g.name,
                "integral": integral,
                "m_f": m_f,
                "m_f_plus_g": m_fg,
                "margin": margin,
                "eta": 0.0,
                "ok": bool(margin >= -1e-12),
            }
        )
    return {"margins": rows, "ok": all(r["ok"] for r in rows)}


def sampled_min(t: OrbitTable, f: Potential) -> float:
    """min f over the table's sample, as a float."""
    return float(t.point_values(f, range(t.size)).min())


def bowen_root(t: OrbitTable, f: Potential, eps_list, n_range,
               tol: float = BOWEN_TOL, log_pressure=None, trace=None) -> float:
    """Root of s -> proxy(-s f) by bisection, for strictly positive f.

    The map decreases in s (every n-step sum of -s f does), the bracket
    is [0, proxy(0)/min f + 1], and the returned s0 satisfies
    |proxy(-s0 f)| <= tol, or a ``BracketError`` names the adjacent doubles
    that the proxy jumps across.  An exact source ``log_pressure(h, n,
    eps)`` prices each step's -s f in place of the table; ``trace`` (a
    list) collects the bracket at each iteration.  The bracket reads min f
    off the table (``sampled_min``), so an exact source still needs one,
    and min f <= 0 raises ``ValueError``.  Every step prices
    -s f through ``estimate_mmdim``.  Without a source, f is registered:
    every s > 0 orders its witnesses by f's sums, so the table's memo
    (``OrbitTable.witness``) builds them at the first such step.
    """
    if t is None:
        raise ValueError("bowen_root needs an orbit table: the bracket reads min f off it")
    min_f = sampled_min(t, f)
    if min_f <= 0.0:
        raise ValueError("bowen_root needs min sampled f > 0")
    if log_pressure is None:
        t.ensure_potential(f)

    def proxy(s: float) -> float:
        return estimate_mmdim(t, scaled_potential(f, -s), eps_list, n_range,
                              log_pressure=log_pressure).upper_proxy

    m0 = proxy(0.0)
    if m0 < -tol:
        raise BracketError(f"proxy at s=0 is negative ({m0}); counts cannot do that")
    if abs(m0) <= tol:
        return 0.0
    hi = m0 / min_f + 1.0
    lo, phi_lo = 0.0, m0
    phi_hi = proxy(hi)
    if phi_hi > tol:
        raise BracketError(f"no sign change: proxy({hi}) = {phi_hi} > tol")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            raise BracketError(f"bracket collapsed to adjacent doubles: proxy({lo!r}) = "
                               f"{phi_lo!r}, proxy({hi!r}) = {phi_hi!r}, tol = {tol!r}")
        val = proxy(mid)
        if trace is not None:
            trace.append({"lo": lo, "hi": hi, "mid": mid, "proxy": val})
        if abs(val) <= tol:
            return mid
        if val > 0.0:
            lo, phi_lo = mid, val
        else:
            hi, phi_hi = mid, val
    raise BracketError("bisection did not reach tolerance in 200 iterations")


def bowen_root_consistency(mu: FinMeasure, f: Potential, s0: float,
                           dictionary: Dictionary, t: OrbitTable,
                           budget: float) -> dict:
    """Residual of s0 against measure_dimension(mu) / integral(f d mu)."""
    integral = mu.integrate(f, t)
    if integral == 0.0:
        raise ValueError("integral of f under mu is zero")
    value = measure_dimension(dictionary, mu, t)
    residual = abs(s0 - value / integral)
    return {
        "s0": s0,
        "ratio": value / integral,
        "residual": residual,
        "budget": budget,
        "ok": bool(residual <= budget + 1e-12),
    }
