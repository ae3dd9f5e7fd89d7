"""The dual side at desk scale: dictionaries, max-min, equilibria.

Walks the whole chain on a 6-point system: build gap members g = m_hat - f
with their near-zero certificates, solve the max-min weight game exactly,
watch the value fall as the dictionary grows (and never rise), check the
optimizer against a dense simplex grid, and probe it with tangent margins.
"""

import numpy as np

from meandim import system_zoo as zoo
from meandim.oracle import simplex_grid_maxmin
from meandim.orbit_engine import build_table
from meandim.simplex import solve_matrix_game
from meandim.variational import (
    Dictionary,
    equilibrium_candidates,
    make_dict_member,
    maxmin_variational,
    measure_dimension,
    tangent_check,
)

EPS = [0.5, 0.35, 0.2]
NR = [1, 2, 3]


def main():
    system = zoo.random_finite_system(6, seed=23, low=0.1, high=1.0)
    sources = [zoo.random_table_potential(system, seed=40 + i) for i in range(4)]
    t = build_table(system, system.points, 3, sources)
    f = sources[0]
    support = list(range(6))

    members = []
    print("dictionary members g = m_hat - source, with certificates:")
    for h in sources:
        m = make_dict_member(t, h, EPS, NR)
        members.append(m)
        print(f"  source {h.name:<16} m_hat {m.m_hat:+.4f} "
              f"certificate proxy {m.certificate.upper_proxy:+.2e}")

    d = Dictionary(tuple(members))
    res = maxmin_variational(d, f, t, support)
    print("\nmax-min value as the dictionary grows (monotone, never rises):")
    # the first k rows of the solved game are the game of the first k members
    for k in range(1, len(members) + 1):
        sol = solve_matrix_game(res.matrix[:k])
        tag = "= m_hat(f) exactly" if k == 1 else ""
        print(f"  {k} member(s): value {float(sol.value):+.6f} gap {float(sol.gap):.1e} {tag}")

    grid = simplex_grid_maxmin(res.matrix, 22)
    print(f"\ndense simplex grid (resolution 22): {grid:+.6f} <= LP {res.value:+.6f}")
    print(f"optimizer weights: {[f'{w:.4f}' for w in res.measure.weights]}")
    print(f"measure functional at the optimizer: "
          f"{measure_dimension(d, res.measure, t):+.6f}")

    cands = equilibrium_candidates(res, tol=1e-9)
    print(f"\n{len(cands)} equilibrium candidate(s); midpoints re-checked internally")

    rng = np.random.default_rng(5)
    perts = [zoo.table_potential(system, rng.uniform(-0.2, 0.2, 6), name=f"pert{j}")
             for j in range(4)]
    value_of = lambda h: maxmin_variational(d, h, t, support).value
    rep = tangent_check(res.measure, f, perts, t, value_of)
    print("tangent margins under the shared dictionary functional (all >= 0):")
    for row in rep["margins"]:
        print(f"  {row['perturbation']:<8} integral {row['integral']:+.4f} "
              f"margin {row['margin']:+.2e}")


if __name__ == "__main__":
    main()
