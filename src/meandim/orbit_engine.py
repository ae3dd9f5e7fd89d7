"""Orbit tables: cached orbit segments, Bowen distances and Birkhoff sums.

This is the hot path.  Pairwise distances at each orbit step are computed
once (vectorized when the system provides ``pairwise_dist``) and folded
into cached Bowen matrices ``max(step 0..n-1)``, which the pressure module
re-reads across its epsilon sweeps.  Birkhoff sums accumulate strictly
left to right so results are bit-reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

from .system_zoo import Point, Potential, System


@dataclass(eq=False)
class OrbitTable:
    """Orbit segments of a fixed sample plus per-potential prefix sums.

    ``orbits[i][j] = T^j(points[i])`` for j < n_max;
    ``birkhoff(f)[i, n] = sum_{j<n} f(orbits[i][j])`` for n <= n_max.
    Immutable in the semantic sense: matrices are lazy caches, and
    ``ensure_potential`` only extends the registry (same values on reread).
    """

    system: System
    points: list
    n_max: int
    _orbits: list = field(default_factory=list)
    _birkhoff: dict = field(default_factory=dict)
    _bowen: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.points)

    # -- construction ------------------------------------------------------

    def _build_orbits(self):
        rows = [[p] for p in self.points]
        for _ in range(self.n_max - 1):
            for row in rows:
                row.append(self.system.apply(row[-1]))
        self._orbits = rows

    def orbit(self, i: int, j: int) -> Point:
        return self._orbits[i][j]

    def ensure_potential(self, f: Potential):
        """Register f: compute its Birkhoff prefix-sum table (idempotent)."""
        if f in self._birkhoff:
            return
        n, nm = self.size, self.n_max
        tab = np.zeros((n, nm + 1))
        for i in range(n):
            acc = 0.0
            for j in range(nm):
                acc += f.eval(self._orbits[i][j])
                tab[i, j + 1] = acc
        self._birkhoff[f] = tab

    def birkhoff(self, f: Potential) -> np.ndarray:
        if f not in self._birkhoff:
            raise KeyError(f"unknown potential {f.name!r}; call ensure_potential")
        return self._birkhoff[f]

    # -- distances ---------------------------------------------------------

    def _step_matrix(self, k: int) -> np.ndarray:
        pts = [row[k] for row in self._orbits]
        if self.system.pairwise_dist is not None:
            return np.asarray(self.system.pairwise_dist(pts), dtype=float)
        n = len(pts)
        out = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                out[a, b] = out[b, a] = self.system.dist(pts[a], pts[b])
        return out

    def bowen_matrix(self, n: int) -> np.ndarray:
        """All-pairs d_n on the sample; cached, built incrementally."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in [1, {self.n_max}]")
        if n in self._bowen:
            return self._bowen[n]
        done = max((m for m in self._bowen if m < n), default=0)
        acc = self._bowen[done].copy() if done else self._step_matrix(0)
        start = done if done else 1
        for k in range(start, n):
            np.maximum(acc, self._step_matrix(k), out=acc)
        self._bowen[n] = acc
        return acc


def build_table(s: System, pts, n_max: int, fs=()) -> OrbitTable:
    """Build the orbit/Birkhoff table for a point sample.

    Requires n_max >= 1 and n_max + 1 <= s.horizon (orbit entries
    0..n_max-1 stay strictly inside the valid window).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max + 1 > s.horizon:
        raise ValueError(
            f"horizon exceeded: n_max={n_max} needs horizon >= {n_max + 1}, "
            f"system {s.name!r} has {s.horizon}"
        )
    t = OrbitTable(system=s, points=list(pts), n_max=n_max)
    t._build_orbits()
    for f in fs:
        t.ensure_potential(f)
    return t


def bowen_dist(t: OrbitTable, i: int, j: int, n: int) -> float:
    """d_n(points[i], points[j]) = max of step distances over 0 <= k < n."""
    if not 1 <= n <= t.n_max:
        raise ValueError(f"n must be in [1, {t.n_max}]")
    best = 0.0
    for k in range(n):
        best = max(best, t.system.dist(t.orbit(i, k), t.orbit(j, k)))
    return best


def birkhoff_sum(t: OrbitTable, f: Potential, i: int, n: int) -> float:
    """n-step sum of f along the orbit of points[i] (n=0 gives 0)."""
    if not 0 <= n <= t.n_max:
        raise ValueError(f"n must be in [0, {t.n_max}]")
    return float(t.birkhoff(f)[i, n])
