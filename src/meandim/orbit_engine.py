"""Orbit tables: cached step data, Bowen distances and Birkhoff sums.

This is the hot path.  Every separation question the pressure module asks
(greedy witness, net size, separated, spanning) takes one of two
strategies.  On a shift (``System.levels`` set) the words' letters are
integer lattice indices, and two words are (n,eps)-close exactly when
every constrained (position, axis) letter differs by less than the
integer gap t_s of ``system_zoo.grid_gap_thresholds``.

* classes, when every gap is 1 (always for the full shift, and for a grid
  at m = 2 or at a small eps): d_n < eps means equal first P = len(gaps)
  letters, an equivalence.  One int class id per word and prefix length,
  each grown from the previous length; no N x N matrix.
* packed close rows otherwise: one greedy and one cover over blocks of
  ``GRID_BLOCK`` rows, row i holding the points within d_n < eps of i.
  On a shift, a packed-bit table near[k, a] holds the words whose
  coordinate k lies within t_k of letter a, and a row is the AND of its
  K = P*D table rows: memory O(N*L*D + K*m*N/8 + GRID_BLOCK*N/8), no
  N x N array.  Systems without lattice letters (finite, product and
  iterate systems) read their rows off the dense d_n, the cached
  ``max(step 0..n-1)`` fold of ``System.pairwise_dist(sample, k)``; d_n
  is symmetric, so rows serve as columns.

``bowen_matrix`` gives the float fold for every system, the reference the
lattice strategies are tested against.

A potential's Birkhoff prefix sums are built on first read by one
sequential ``np.cumsum`` along the steps over a leading zero column,
bitwise equal to a left-to-right running sum.  The summands are one call
of the potential's array form (``Potential.array``) over the table's
(N, n_max) step data (``System.steps``).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .system_zoo import Potential, System, grid_gap_thresholds

GRID_BLOCK = 256  # points per block of packed close rows


@dataclass(eq=False)
class OrbitTable:
    """Step data of a fixed sample plus per-potential prefix sums.

    ``birkhoff(f)[i, n] = sum_{j<n} f(T^j points[i])`` for n <= n_max.
    Immutable in the semantic sense: step data, classes, matrices and
    prefix-sum tables are lazy caches (same values on reread), and
    ``drop_potential`` frees a table nothing will read again.
    """

    system: System
    points: np.ndarray  # the sample, one row per point; a shift's (N, L, D) letters
    n_max: int
    _steps: Optional[np.ndarray] = None
    _birkhoff: dict = field(default_factory=dict)
    _dropped: list = field(default_factory=list)
    _bowen: dict = field(default_factory=dict)
    _classes: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.points)

    # -- construction ------------------------------------------------------

    def _step_data(self) -> np.ndarray:
        """The sample's (N, n_max) ``System.steps`` data, built on first call."""
        if self._steps is None:
            self._steps = self.system.steps(self.points, self.n_max)
        return self._steps

    def ensure_potential(self, f: Potential):
        """Register f: compute its Birkhoff prefix-sum table (idempotent)."""
        if f in self._birkhoff:
            return
        # each row is 0.0 then f along the orbit, summed in place
        tab = np.zeros((self.size, self.n_max + 1))
        tab[:, 1:] = f.array(self._step_data())
        self._birkhoff[f] = np.cumsum(tab, axis=1, out=tab)

    def point_values(self, f: Potential, idx) -> np.ndarray:
        """f(points[i]) for i in idx, as floats: the array form over the
        step-0 column."""
        idx = np.asarray(idx, dtype=np.intp)
        return np.asarray(f.array(self._step_data()[idx, 0]), dtype=float)

    def drop_potential(self, f: Potential):
        """Free f's prefix-sum table, if registered; a later read rebuilds it.

        f itself stays referenced, a few hundred bytes against the table's
        8 * N * (n_max + 1), so no later potential of this table reuses its
        identity and identity-keyed observers (traces) count it once.
        """
        if self._birkhoff.pop(f, None) is not None:
            self._dropped.append(f)

    def birkhoff(self, f: Potential) -> np.ndarray:
        """f's prefix-sum table, built on first read."""
        if f not in self._birkhoff:
            self.ensure_potential(f)
        return self._birkhoff[f]

    # -- separation queries ------------------------------------------------

    def greedy_net(self, order, n: int, eps: float) -> list:
        """Greedy maximal (n,eps)-separated subset, scanning ``order``.

        A point is kept when no point kept before it lies within d_n < eps.
        Returns the kept indices in ascending index order.
        """
        order = np.asarray(order, dtype=np.intp)
        gaps = self._gaps(n, eps)
        if len(order) == 0:
            return []
        if gaps is not None and set(gaps) <= {1}:
            # d_n < eps is an equivalence: keep the first of each class
            first = np.unique(self._prefix_classes(len(gaps))[order], return_index=True)[1]
            return sorted(order[first].tolist())
        return self._row_greedy(order, self._close_rows(n, eps, gaps))

    def is_separated(self, witness, n: int, eps: float) -> bool:
        """Every two entries of ``witness`` lie at d_n >= eps.

        Scanning the witness, the greedy drops an entry exactly when it is
        close to an earlier one (a repeated entry lies at d_n = 0).
        """
        return len(self.greedy_net(witness, n, eps)) == len(witness)

    def spans(self, witness, n: int, eps: float) -> bool:
        """Every sample point lies within d_n < eps of some witness entry."""
        w = np.asarray(witness, dtype=np.intp)
        if len(w) == 0:
            return self.size == 0
        gaps = self._gaps(n, eps)
        if gaps is not None and set(gaps) <= {1}:
            classes = self._prefix_classes(len(gaps))
            return bool(np.all(np.isin(classes, classes[w])))
        rows, covered = self._close_rows(n, eps, gaps), self._packed([])
        for i in range(0, len(w), GRID_BLOCK):
            covered |= np.bitwise_or.reduce(rows(w[i : i + GRID_BLOCK]), axis=0)
        return bool(np.array_equal(covered, self._packed(np.arange(self.size))))

    def _check_n(self, n: int):
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in [1, {self.n_max}]")

    def _gaps(self, n: int, eps: float):
        """The integer letter gaps of "d_n < eps" on the sample's words.

        None when the system has no lattice letters (``System.levels``):
        its close rows come from the dense d_n instead.
        """
        self._check_n(n)
        if self.system.levels is None:
            return None
        return grid_gap_thresholds(self.system.levels, n, eps, self.points.shape[1])

    # -- class kernel (every gap 1) ----------------------------------------

    def _prefix_classes(self, p: int) -> np.ndarray:
        """Dense class ids of the words' first p letters, cached per p.

        Each length refines the longest cached shorter one by one letter,
        axis by axis, so the cache holds at most L+1 int arrays of the
        sample size.
        """
        if p not in self._classes:
            letters = self.points
            done = max((k for k in self._classes if k < p), default=0)
            ids = self._classes[done] if done else np.zeros(self.size, dtype=np.int64)
            base = int(letters.max()) + 1
            for k in range(done, p):
                for axis in letters[:, k].T:
                    ids = np.unique(ids * base + axis, return_inverse=True)[1]
                self._classes[k + 1] = ids
        return self._classes[p]

    # -- packed close rows (any other gaps, or no lattice letters) ----------

    def _packed(self, idx) -> np.ndarray:
        """The index set ``idx`` as a packed bit row over the sample."""
        bits = np.zeros(self.size, dtype=bool)
        bits[np.asarray(idx, dtype=np.intp)] = True
        return np.packbits(bits)

    def _close_rows(self, n: int, eps: float, gaps):
        """The function idx -> packed "d_n < eps" rows of the points idx."""
        if gaps is not None:
            return self._lattice_rows(gaps)
        dn = self.bowen_matrix(n)
        return lambda idx: np.packbits(dn[idx] < eps, axis=1)

    def _lattice_rows(self, gaps: list):
        """The packed close rows of words, read off their lattice letters.

        Two words are close when |a_k - b_k| < t_k on each of the K = P*D
        constrained coordinates k, P = len(gaps).  near[k][a] packs the
        words whose coordinate k lies within t_k of letter a, so row i is
        the AND of near[k][a_k(i)] over k.
        """
        letters = self.points
        size, _, dim = letters.shape
        coords = letters[:, : len(gaps)].reshape(size, -1)
        # every sample letter, and so every difference, fits the letter type
        lattice = np.arange(int(letters.max()) + 1, dtype=letters.dtype)[:, None]
        near = [
            np.packbits(np.abs(col - lattice) < t, axis=1)
            for col, t in zip(coords.T, np.repeat(gaps, dim))
        ]
        everyone = self._packed(np.arange(size))

        def rows(idx) -> np.ndarray:
            out = np.tile(everyone, (len(idx), 1))
            for table, col in zip(near, coords[idx].T):
                out &= table[col]
            return out

        return rows

    def _row_greedy(self, order: np.ndarray, rows) -> list:
        """``greedy_net`` over packed close rows with a packed ``alive`` row.

        Blocks of ``order`` drop the points already dead, build the close
        rows of the rest at once, and keep each point still alive in scan
        order, clearing its row from ``alive``.
        """
        alive = self._packed(np.arange(self.size))
        kept = []
        for i in range(0, len(order), GRID_BLOCK):
            block = order[i : i + GRID_BLOCK]
            block = block[np.unpackbits(alive)[block] == 1]
            for idx, far in zip(block.tolist(), ~rows(block)):
                if alive[idx >> 3] >> (7 - (idx & 7)) & 1:
                    kept.append(idx)
                    alive &= far
        return sorted(kept)

    # -- dense d_n matrices ------------------------------------------------

    def _step_matrix(self, k: int) -> np.ndarray:
        return np.asarray(self.system.pairwise_dist(self.points, k), dtype=float)

    def bowen_matrix(self, n: int) -> np.ndarray:
        """All-pairs float d_n on the sample; cached.

        Folds step matrices onto the longest cached shorter d_n.  The
        separation queries of full and grid shifts never call this: it is
        their dense reference, and the row source of every other system.
        """
        self._check_n(n)
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
    """Build the orbit/Birkhoff table for a sample of ``s``.

    ``pts`` is an array sample of ``s`` (``System.sample``, ``points`` or
    ``enumerate_words``), held as ``np.asarray(pts)``.  The table reads
    ``s`` only through ``s.steps``, ``s.pairwise_dist(pts, k)`` and a
    shift's letters.

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
    t = OrbitTable(system=s, points=np.asarray(pts), n_max=n_max)
    for f in fs:
        t.ensure_potential(f)
    return t


def birkhoff_sum(t: OrbitTable, f: Potential, i: int, n: int) -> float:
    """n-step sum of f along the orbit of points[i] (n=0 gives 0)."""
    if not 0 <= n <= t.n_max:
        raise ValueError(f"n must be in [0, {t.n_max}]")
    return float(t.birkhoff(f)[i, n])
