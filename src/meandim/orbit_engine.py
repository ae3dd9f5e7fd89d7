"""Orbit tables: cached step data, closeness tests and Birkhoff sums.

This is the hot path.  Every separation question the pressure module asks
(greedy witness, net size, separated, spanning) reads one rule, the
system's exact tests ``System.closeness(sample, range(n), eps)``, read
once per (n, eps) and memoised, through one of two kernels:

* classes, unless a relation test was read and they still join points:
  one int class id per point, refined by each equality test, each prefix
  cached under its parent prefix's entry and its last test's key, the
  read stopping once every point is its own class;
* otherwise one greedy and one cover over blocks of ``GRID_BLOCK`` packed
  close rows, row i the AND of each test's packed table (cached per key)
  at i's value: no N x N array and no float compare.

``bowen_matrix`` folds a finite system's float matrix
``System.pairwise_dist`` over the steps; no query reads it.

A potential's Birkhoff prefix sums are built by one sequential
``np.cumsum`` along the steps over a leading zero column, bitwise equal
to a left-to-right running sum.  The summands are one call of the
potential's array form (``Potential.array``) over the table's (N, n_max)
step data (``System.steps``).  A table keeps the sums of the potentials
registered with it (``build_table(fs)``, ``ensure_potential``) for its
life, and of one more: the last other potential read, rebuilt when
another is read.  So it holds at most one prefix-sum table beyond its
registered potentials', however many potentials its callers derive.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .system_zoo import Potential, System

GRID_BLOCK = 256  # points per block of packed close rows


@dataclass(eq=False)
class OrbitTable:
    """Step data of a fixed sample plus per-potential prefix sums.

    ``birkhoff(f)[i, n] = sum_{j<n} f(T^j points[i])`` for n <= n_max.
    Immutable in the semantic sense: step data, closeness kernels and
    prefix-sum tables are lazy caches (same values on reread).  The
    registered potentials' tables live as long as the table; any other
    potential's lives in one slot, ``_last``, until another is read.

    Its memo of greedy nets, beside ``_birkhoff``, ``_close`` and ``_near``:

    * ``_witnesses[base, sign, n, eps]``: ``witness``'s net by descending
      sign * S_n base, where (base, sign) is a potential's ``order or (f,
      1.0)``; kept only when ``base`` is registered, so a bisection over
      -s f builds each cell's witness once.  A witness is a read-only
      ascending intp array, so its readers share it and none can write it;
    * ``_net_sizes[eps]``: ``net_size``'s d_1 net size in index order.

    Bound: one witness per registered base, sign and (n, eps) read, and
    one size per eps read; for one command, 2 * R * |n_range| * |eps_list|
    + |eps_list| with R registered potentials.
    """

    system: System
    points: np.ndarray  # the sample, one row per point; a shift's (N, L, D) letters
    n_max: int
    _steps: Optional[np.ndarray] = field(default=None, init=False)
    _birkhoff: dict = field(default_factory=dict, init=False)
    _last: tuple = field(default=(None, None), init=False)
    _close: dict = field(default_factory=dict, init=False)
    _classes: dict = field(default_factory=dict, init=False)
    _near: dict = field(default_factory=dict, init=False)
    _witnesses: dict = field(default_factory=dict, init=False)
    _net_sizes: dict = field(default_factory=dict, init=False)

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def distinct(self) -> int:
        """Number of distinct sample points.  A repeated draw lies at d = 0
        from its twin, so it resolves nothing a net could count."""
        return len({row.tobytes() for row in self.points})

    # -- construction ------------------------------------------------------

    def _step_data(self) -> np.ndarray:
        """The sample's (N, n_max) ``System.steps`` data, built on first call."""
        if self._steps is None:
            self._steps = self.system.steps(self.points, self.n_max)
        return self._steps

    def _prefix_sums(self, f: Potential) -> np.ndarray:
        """f's (N, n_max + 1) prefix-sum table: each row is 0.0 then f
        along the orbit, summed in place."""
        tab = np.zeros((self.size, self.n_max + 1))
        tab[:, 1:] = f.array(self._step_data())
        return np.cumsum(tab, axis=1, out=tab)

    def ensure_potential(self, f: Potential):
        """Register f: keep its prefix-sum table for the table's life (idempotent)."""
        if f not in self._birkhoff:
            self._birkhoff[f] = self._prefix_sums(f)

    def point_values(self, f: Potential, idx) -> np.ndarray:
        """f(points[i]) for i in idx, as floats: the array form over the
        step-0 column."""
        idx = np.asarray(idx, dtype=np.intp)
        return np.asarray(f.array(self._step_data()[idx, 0]), dtype=float)

    def birkhoff(self, f: Potential) -> np.ndarray:
        """f's prefix-sum table: a registered potential's, else the slot's,
        rebuilt unless f is the last unregistered potential read."""
        if f in self._birkhoff:
            return self._birkhoff[f]
        if self._last[0] is not f:
            self._last = (f, self._prefix_sums(f))
        return self._last[1]

    # -- separation queries ------------------------------------------------

    def witness(self, base: Potential, sign: float, n: int, eps: float) -> np.ndarray:
        """``greedy_net`` scanning by descending sign * S_n base, ties by
        sample index (a stable sort); its read-only array is memoised as it
        is when ``base`` is registered."""
        key = (base, sign, n, eps)
        if key in self._witnesses:
            return self._witnesses[key]
        order = np.argsort(-sign * self.birkhoff(base)[:, n], kind="stable")
        kept = self.greedy_net(order, n, eps)
        if base in self._birkhoff:
            self._witnesses[key] = kept
        return kept

    def net_size(self, eps: float) -> int:
        """Size of the greedy eps-net of the sample under d_1 (index
        order), memoised per eps."""
        if eps not in self._net_sizes:
            self._net_sizes[eps] = len(self.greedy_net(np.arange(self.size), 1, eps))
        return self._net_sizes[eps]

    def greedy_net(self, order, n: int, eps: float) -> np.ndarray:
        """Greedy maximal (n,eps)-separated subset, scanning ``order``.

        A point is kept when no point kept before it lies within d_n < eps.
        Returns the kept indices as a read-only, ascending intp array.
        """
        order = np.asarray(order, dtype=np.intp)
        close = self._closeness(n, eps)
        if isinstance(close, np.ndarray):
            # d_n < eps is an equivalence: keep the first of each class
            first = np.unique(close[order], return_index=True)[1]
            kept = order[first].tolist()
        else:
            kept = self._row_greedy(order, self._close_rows(close))
        # sorted as Python ints: numpy's default sort kernels are code that
        # no other step pages in, about 0.1 MB of peak RSS on bowen-shift
        kept = np.array(sorted(kept), dtype=np.intp)
        kept.flags.writeable = False
        return kept

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
        close = self._closeness(n, eps)
        if isinstance(close, np.ndarray):
            return bool(np.all(np.isin(close, close[w])))
        rows, covered = self._close_rows(close), self._packed([])
        for i in range(0, len(w), GRID_BLOCK):
            covered |= np.bitwise_or.reduce(rows(w[i : i + GRID_BLOCK]), axis=0)
        return bool(np.array_equal(covered, self._packed(np.arange(self.size))))

    def _closeness(self, n: int, eps: float):
        """The sample's (n, eps)-closeness, memoised, from one read of the
        system's tests: each equality test refines the class ids (a prefix
        cached under its parent's entry and the new test's key) until every
        point is its own class.  The class ids, unless a relation test was
        read and the classes still join points: then each test's packed
        table and column."""
        if (n, eps) not in self._close:
            read, related, entry, ids = [], False, 0, np.zeros(self.size, dtype=np.int64)
            for key, col, near in self.system.closeness(self.points, self._step_range(n), eps):
                if ids.max(initial=-1) + 1 == self.size:
                    break  # no two points are close, whatever the rest say
                read.append((key, col, near))
                related |= near is not None
                if near is None:
                    if (entry, key) not in self._classes:
                        ids = np.unique(ids * (int(col.max(initial=0)) + 1) + col, return_inverse=True)[1]
                        self._classes[entry, key] = len(self._classes) + 1, ids
                    entry, ids = self._classes[entry, key]
            joined = ids.max(initial=-1) + 1 < self.size
            self._close[n, eps] = [self._near_table(*t) for t in read] if related and joined else ids
        return self._close[n, eps]

    def _step_range(self, n: int) -> range:
        """The steps 0..n-1 of d_n, for 1 <= n <= n_max."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in [1, {self.n_max}]")
        return range(n)

    def _packed(self, idx) -> np.ndarray:
        """The index set ``idx`` as a packed bit row over the sample."""
        bits = np.zeros(self.size, dtype=bool)
        bits[np.asarray(idx, dtype=np.intp)] = True
        return np.packbits(bits)

    def _near_table(self, key, col: np.ndarray, near) -> tuple:
        """A test's packed table, row v the points whose value is related
        to v, and its column in the smallest int type; cached per key.  An
        equality test relates the values present, so V <= N."""
        if key not in self._near:
            if near is None:
                vals, col = np.unique(col, return_inverse=True)
                near = np.eye(len(vals), dtype=bool)
            # take keeps the gathered (V, N) bits, and so the table, C-ordered
            table = np.packbits(near.take(col, axis=1), axis=1)
            self._near[key] = table, col.astype(np.min_scalar_type(len(table)), copy=False)
        return self._near[key]

    def _close_rows(self, tables: list):
        """The function idx -> packed close rows of the points idx: row i
        ANDs table[column[i]] over the tests, every column gathered once
        per block."""
        cols = np.stack([col for _, col in tables], axis=1)
        everyone = self._packed(np.arange(self.size))

        def rows(idx) -> np.ndarray:
            out = np.tile(everyone, (len(idx), 1))
            for (table, _), col in zip(tables, cols[idx].T):
                out &= table[col]
            return out

        return rows

    def _row_greedy(self, order: np.ndarray, rows) -> list:
        """``greedy_net``'s kept points, in scan order, over packed close
        rows with a packed ``alive`` row.

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
        return kept

    # -- dense reference ---------------------------------------------------

    def bowen_matrix(self, n: int) -> np.ndarray:
        """All-pairs float d_n of a finite system, the max
        of ``System.pairwise_dist(sample, k)`` over k < n; no query reads it."""
        if self.system.pairwise_dist is None:
            raise ValueError(f"system {self.system.name!r} has no float distance matrix")
        ks = self._step_range(n)
        acc = np.asarray(self.system.pairwise_dist(self.points, 0), dtype=float)
        for k in ks[1:]:
            np.maximum(acc, self.system.pairwise_dist(self.points, k), out=acc)
        return acc


def build_table(s: System, pts, n_max: int, fs=()) -> OrbitTable:
    """Build the orbit/Birkhoff table for a sample of ``s``.

    ``pts`` is an array sample of ``s`` (``System.sample``, ``points`` or
    ``enumerate_words``), held as ``np.asarray(pts)``.  The table reads
    ``s`` only through ``s.steps`` and ``s.closeness``, and
    ``bowen_matrix`` folds a finite system's ``s.pairwise_dist``.  The
    potentials ``fs`` are registered: their tables live as long as it does.

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
