"""Grid-shift slopes: exact per-letter counts vs a saturated random sample.

The m=17 grid shift needs counts around 17^n * 270 at eps = 2^-4, far
beyond any desk-scale sample, so greedy counting on random words
saturates at the sample size and drags the slope down.  The per-letter
counting oracle gives the exact curve; a small m=3 system, where an
exhaustive sample fits in memory, certifies that the two paths agree.
"""

import numpy as np

from meandim import system_zoo as zoo
from meandim.mmdim import estimate_mmdim
from meandim.oracle import lattice_log_pressure
from meandim.orbit_engine import build_table
from meandim.pressure import greedy_separated


def main():
    eps_list = [2.0**-2, 2.0**-3, 2.0**-4]

    print("exact per-letter counting oracle, m = 17:")
    for D in (1, 2):
        exact = lambda h, n, eps, _D=D: lattice_log_pressure(17, 17, _D, n, eps, np.zeros(17))
        est = estimate_mmdim(None, zoo.zero_potential(), eps_list, [1, 2, 3],
                             log_pressure=exact)
        print(f"  D={D}: ratios {[f'{r:.3f}' for r in est.ratios]} "
              f"slope {est.slope:.4f} (target window [{0.8 * D}, {1.1 * D}])")

    print("\nsame estimator on 4000 random words (D=1, m=17): saturation")
    g = zoo.make_grid_shift(1, 17, 8)
    t = build_table(g, g.sample(4000, seed=1), 3, [zoo.zero_potential()])
    est = estimate_mmdim(t, zoo.zero_potential(), eps_list, [1, 2, 3])
    for d in est.diagnostics["per_eps"]:
        print(f"  eps={d['eps']:<8} v={d['v']:.3f} ratio={d['ratio']:.3f} "
              f"resolved={d['resolved']} net(eps/2)={d['net_size_half_eps']}")
    print(f"  slope over resolved eps only: {est.slope:.4f} "
          "(unresolved eps are excluded; counts cap at the sample size)")

    print("\ncertification at m = 3 (exhaustive 3^5 words, greedy == oracle):")
    g3 = zoo.make_grid_shift(1, 3, 5)
    t3 = build_table(g3, zoo.enumerate_words(3, 5), 3, [zoo.zero_potential()])
    for n in (1, 2, 3):
        a = greedy_separated(t3, zoo.zero_potential(), n, 0.25).log_value
        b = lattice_log_pressure(3, 3, 1, n, 0.25, np.zeros(3))
        print(f"  n={n}: greedy {a:.6f}  counting oracle {b:.6f}  |diff| {abs(a - b):.1e}")


if __name__ == "__main__":
    main()
