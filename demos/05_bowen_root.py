"""Root finding for the scaled-potential proxy (dimension via pressure zero).

For f = 1 + x0 on the binary shift the per-eps pressure has a closed
transfer form, and the proxy's root solves eps^s + eps^2s = 1 at the
dominating eps: a golden-section value.  The bisection trace shows the
bracket contracting onto it; the consistency check ties the root back to
the measure functional of an equilibrium at the root.
"""

import math

import numpy as np

from meandim import system_zoo as zoo
from meandim.oracle import lattice_log_pressure
from meandim.orbit_engine import build_table
from meandim.system_zoo import enumerate_words, make_full_shift
from meandim.variational import (
    Dictionary,
    bowen_root,
    bowen_root_consistency,
    make_dict_member,
    maxmin_variational,
)

EPS = [2.0**-6, 2.0**-7, 2.0**-8]
NR = [1, 2, 3]


def main():
    system = make_full_shift(2, 11)
    f = zoo.first_coord_potential(system, offset=1.0)  # 1 + first letter
    t = build_table(system, enumerate_words(2, 11), 3, [f])

    def transfer(h, n, eps):
        # h is a function of the leading letter: its values at letters 0, 1
        return lattice_log_pressure(2, 2, 1, n, eps, h.array(np.array([0.0, 1.0])))

    trace = []
    s0 = bowen_root(t, f, EPS, NR, tol=1e-10, log_pressure=transfer, trace=trace)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    closed = -math.log(phi) / (6 * math.log(2.0))
    print(f"root s0 = {s0:.8f}; golden-section closed form {closed:.8f}")
    print("bisection trace (bracket per iteration):")
    for step in trace[:8]:
        print(f"  [{step['lo']:.6f}, {step['hi']:.6f}] mid {step['mid']:.6f} "
              f"proxy {step['proxy']:+.2e}")
    if len(trace) > 8:
        print(f"  ... {len(trace) - 8} more iterations")

    # consistency: with the dictionary built at the root potential, the
    # residual is bounded by tol / min f
    root_pot = zoo.scaled_potential(f, -s0)
    t.ensure_potential(root_pot)
    member = make_dict_member(t, root_pot, EPS, NR, log_pressure=transfer)
    d = Dictionary((member,))
    res = maxmin_variational(d, root_pot, t, list(range(8)))
    rep = bowen_root_consistency(res.measure, f, s0, d, t, budget=1e-9)
    print(f"\nconsistency: s0 vs measure_dimension/integral ratio "
          f"{rep['ratio']:.8f}, residual {rep['residual']:.2e}")


if __name__ == "__main__":
    main()
