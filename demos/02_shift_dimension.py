"""Dimension proxies on the binary shift with the first-letter potential.

With an exhaustive word sample the greedy pressures are exact, and the
per-eps ratio reproduces the closed-form transfer value
log(1 + 2^k) / (k log 2) -> 1 as eps = 2^-k shrinks.
"""

import math

from meandim import system_zoo as zoo
from meandim.mmdim import estimate_mmdim
from meandim.oracle import lattice_log_pressure
from meandim.orbit_engine import build_table
from meandim.system_zoo import enumerate_words, make_full_shift


def main():
    L = 11
    system = make_full_shift(2, L)
    f = zoo.first_coord_potential(system)
    t = build_table(system, enumerate_words(2, L), 3, [f])

    eps_list = [2.0**-6, 2.0**-7, 2.0**-8]
    est = estimate_mmdim(t, f, eps_list, [1, 2, 3])

    print(f"sample: all {2**L} words of length {L}; n in 1..3")
    print("eps        ratio (estimate)   ratio (transfer oracle)")
    for eps, ratio in zip(est.eps_list, est.ratios):
        k = round(-math.log2(eps))
        oracle = math.log(1 + 2.0**k) / (k * math.log(2.0))
        print(f"2^-{k}      {ratio:.10f}     {oracle:.10f}")
    print(f"\nslope of v against log(1/eps): {est.slope:.6f}")
    print(f"upper proxy {est.upper_proxy:.6f}, lower proxy {est.lower_proxy:.6f}")
    print("(with potential bounded by 1, both proxies sit just above 1 and")
    print(" drift toward the zero-potential value as eps -> 0)")

    n, k = 2, 8
    print(
        f"\nclosed form at n={n}, k={k}: "
        f"{lattice_log_pressure(2, 2, 1, n, 2.0**-k, [0.0, 1.0]):.6f} nats "
        f"= k log 2 + n log(1 + 2^k)"
    )


if __name__ == "__main__":
    main()
