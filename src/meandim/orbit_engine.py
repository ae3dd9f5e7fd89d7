"""Orbit tables: cached orbit segments, Bowen distances and Birkhoff sums.

This is the hot path.  Every separation question the pressure module asks
(greedy witness, net size, separated, spanning) goes through one of three
distance kernels, chosen by ``System.shift_metric``:

* ``"prefix"`` (full shift): d_n(x,y) = 2^-max(F-n+1,0) with F the first
  index where x and y differ, so two words are (n,eps)-separated exactly
  when their first min(n+K, L) letters differ, K the largest j with
  2^-j >= eps.  Separation is class membership: the kernel keeps one int
  class id per word and prefix length, each grown from the previous
  length, and never builds an N x N matrix.
* ``"grid"`` (grid shift): d_n = max_s 2^-max(s-n+1,0) * cheb_s, with
  cheb_s the Chebyshev distance of the letters at position s.  One
  backward pass computes each position's matrix once and yields every
  cached d_n <= n_max, bitwise equal to the step fold below.
* dense (everything else: finite, product and iterate systems): the
  step distances from ``System.pairwise_dist`` folded into cached
  ``max(step 0..n-1)`` matrices.  This is also the
  reference the other two are tested against.

Birkhoff sums accumulate strictly left to right so results are
bit-reproducible.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .system_zoo import Point, Potential, System


@dataclass(eq=False)
class OrbitTable:
    """Orbit segments of a fixed sample plus per-potential prefix sums.

    ``orbits[i][j] = T^j(points[i])`` for j < n_max;
    ``birkhoff(f)[i, n] = sum_{j<n} f(orbits[i][j])`` for n <= n_max.
    Immutable in the semantic sense: letters, classes and matrices are
    lazy caches, ``ensure_potential`` extends the registry (same values on
    reread) and ``drop_potential`` frees a table nothing will read again.
    """

    system: System
    points: list
    n_max: int
    _orbits: list = field(default_factory=list)
    _birkhoff: dict = field(default_factory=dict)
    _dropped: list = field(default_factory=list)
    _bowen: dict = field(default_factory=dict)
    _letters: Optional[np.ndarray] = None
    _classes: dict = field(default_factory=dict)

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

    def drop_potential(self, f: Potential):
        """Free f's prefix-sum table, if registered (a later ensure rebuilds it).

        f itself stays referenced, a few hundred bytes against the table's
        8 * N * (n_max + 1), so no later potential of this table reuses its
        identity and identity-keyed observers (traces) count it once.
        """
        if self._birkhoff.pop(f, None) is not None:
            self._dropped.append(f)

    def birkhoff(self, f: Potential) -> np.ndarray:
        if f not in self._birkhoff:
            raise KeyError(f"unknown potential {f.name!r}; call ensure_potential")
        return self._birkhoff[f]

    # -- separation queries ------------------------------------------------

    def greedy_net(self, order, n: int, eps: float) -> list:
        """Greedy maximal (n,eps)-separated subset, scanning ``order``.

        A point is kept when no point kept before it lies within d_n < eps.
        Returns the kept indices in ascending index order.
        """
        order = np.asarray(order, dtype=np.intp)
        if self.system.shift_metric == "prefix":
            # d_n < eps is an equivalence: keep the first of each class
            first = np.unique(self._classes_for(n, eps)[order], return_index=True)[1]
            return sorted(order[first].tolist())
        dn = self.bowen_matrix(n)
        alive = np.ones(self.size, dtype=bool)
        kept = []
        for idx in order.tolist():
            if alive[idx]:
                kept.append(idx)
                alive &= dn[idx] >= eps
        return sorted(kept)

    def is_separated(self, witness, n: int, eps: float) -> bool:
        """Every two entries of ``witness`` lie at d_n >= eps."""
        w = np.asarray(witness, dtype=np.intp)
        if self.system.shift_metric == "prefix":
            return len(np.unique(self._classes_for(n, eps)[w])) == len(w)
        pairs = self.bowen_matrix(n)[np.ix_(w, w)][np.triu_indices(len(w), 1)]
        return bool(np.all(pairs >= eps))

    def spans(self, witness, n: int, eps: float) -> bool:
        """Every sample point lies within d_n < eps of some witness entry."""
        w = np.asarray(witness, dtype=np.intp)
        if len(w) == 0:
            return self.size == 0
        if self.system.shift_metric == "prefix":
            classes = self._classes_for(n, eps)
            return bool(np.all(np.isin(classes, classes[w])))
        return bool(np.all(self.bowen_matrix(n)[:, w].min(axis=1) < eps))

    # -- prefix kernel (full shift) ----------------------------------------

    def _word_letters(self) -> np.ndarray:
        """The sample's words as one letter array (built on first use)."""
        if self._letters is None:
            self._letters = np.array([p.code for p in self.points])
        return self._letters

    def _classes_for(self, n: int, eps: float) -> np.ndarray:
        """Class ids of the full-shift words under "d_n < eps".

        The words agree on their first P = min(n+K, L) letters exactly
        when d_n = 2^-max(F-n+1,0) < eps, K the largest j with 2^-j >= eps.
        """
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in [1, {self.n_max}]")
        length = self._word_letters().shape[1]
        p = n
        while p < length and 2.0 ** -(p - n + 1) >= eps:
            p += 1
        return self._prefix_classes(p)

    def _prefix_classes(self, p: int) -> np.ndarray:
        """Dense class ids of the words' first p letters, cached per p.

        Each length refines the longest cached shorter one by one letter,
        so the cache holds at most L+1 int arrays of the sample size.
        """
        if p not in self._classes:
            letters = self._word_letters()
            done = max((k for k in self._classes if k < p), default=0)
            ids = self._classes[done] if done else np.zeros(self.size, dtype=np.int64)
            base = int(letters.max()) + 1
            for k in range(done, p):
                ids = np.unique(ids * base + letters[:, k], return_inverse=True)[1]
                self._classes[k + 1] = ids
        return self._classes[p]

    # -- d_n matrices (grid and dense kernels) -----------------------------

    def _grid_bowen(self):
        """Cache d_1..d_{n_max} of the grid shift in one pass over positions.

        Streaming s from the last letter position back,
        tail_n = max_{s >= n-1} 2^-(s-n+1) cheb_s obeys
        tail_n = max(cheb_{n-1}, tail_{n+1}/2), and d_n = max(d_{n-1}, tail_n).
        Halving and max are exact, so every d_n is bitwise the step fold's.
        Only the kept tails, the running tail and two per-position buffers
        are alive at once.
        """
        letters = np.asarray(self._word_letters(), dtype=float)  # (N, L, D)
        size, length, dim = letters.shape
        tail = np.zeros((size, size))
        cheb = np.empty((size, size))
        diff = np.empty((size, size))
        tails = {}
        for s in range(length - 1, -1, -1):
            for axis in range(dim):
                col = letters[:, s, axis]
                out = cheb if axis == 0 else diff
                np.subtract(col[:, None], col[None, :], out=out)
                np.abs(out, out=out)
                if axis:
                    np.maximum(cheb, diff, out=cheb)
            tail *= 0.5
            np.maximum(tail, cheb, out=tail)
            if s < self.n_max:  # tail is now tail_{s+1}
                tails[s + 1] = tail if s == 0 else tail.copy()
        for n in range(2, self.n_max + 1):
            np.maximum(tails[n], tails[n - 1], out=tails[n])
        self._bowen.update(tails)

    def _step_matrix(self, k: int) -> np.ndarray:
        pts = [row[k] for row in self._orbits]
        return np.asarray(self.system.pairwise_dist(pts), dtype=float)

    def bowen_matrix(self, n: int) -> np.ndarray:
        """All-pairs d_n on the sample; cached.

        Grid shifts fill every n <= n_max in one pass; other systems fold
        step matrices onto the longest cached shorter d_n.  Full-shift
        separation queries never call this (it stays the dense reference).
        """
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in [1, {self.n_max}]")
        if n in self._bowen:
            return self._bowen[n]
        if self.system.shift_metric == "grid":
            self._grid_bowen()
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
