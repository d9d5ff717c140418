"""Physical-topology service: one uniform-grid connectivity backend.

The physical substrate answers four questions for every layer above it:
"who is in range of ``i``?", "is there a link ``i``--``j``?", "how many
ad-hoc hops from ``src`` to everyone?" and "are ``a`` and ``b``
connected at all?".  :class:`TopologyBackend` answers all of them at
every node count, from the paper's n = 50..150 to the thousands of nodes
large-MANET work (CARD, unstructured-overlay studies) cares about.

It is a uniform-grid spatial index with cell size equal to the radio
range, so a node's candidates live in at most 9 cells instead of a row
of n.  One CSR adjacency per snapshot, built by whichever read first
needs it in nine vectorized cell-offset passes, answers ``neighbors`` (a
row slice), ``degrees`` and BFS (frontier-at-a-time over the CSR
arrays); per-source BFS states are memoized under an LRU bound and
expanded level by level only as far as a query needs (``hop_distance``
stops once its target is labelled).
O(n·k) time and memory per snapshot at bounded density k -- the regime
where n grows but the node density (and hence the mean degree) stays
fixed.  The test suite holds it to an O(n²) dense-matrix oracle
(``tests/test_net_topology.py``): neighbor sets and hop distances must
agree exactly.

A stale snapshot follows one refresh rule: it is *kept* -- CSR, ``link``
lists and distance cache included -- when neither the positions nor the
down mask changed, and otherwise *rebuilt from scratch*.  Everything a
snapshot derives is a pure function of those two inputs, so a rebuild
from equal inputs would produce equal arrays.

Every array a query hands out -- neighbour rows, the CSR, the adjacency
matrix, cached hop-distance vectors -- is shared snapshot state and
read-only: writing to one raises ``ValueError``.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..obs.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (world imports us)
    from .world import World

__all__ = ["UNREACHABLE", "TopologyBackend"]

#: Sentinel hop distance for disconnected pairs.
UNREACHABLE = -1

#: Grid-key packing: cell (cx, cy) -> (cx + _KOFF) * _KSTRIDE +
#: (cy + _KOFF), so the three cells of one grid column are consecutive
#: keys.  Collision-free while every cell coordinate stays within
#: ±(_KOFF - 2) -- at a 10 m radio range that is a deployment area of
#: ~10,000 km per axis.
_KOFF = 1 << 20
_KSTRIDE = 1 << 21
#: packed-key offsets of the three cell columns of a 3x3 block; within a
#: column, cells ``cy - 1 .. cy + 1`` are consecutive keys
_COLUMN_OFFSETS = np.array([-_KSTRIDE, 0, _KSTRIDE])


class TopologyBackend:
    """Uniform-grid spatial index + one CSR adjacency per snapshot.

    A backend owns the connectivity state derived from one *snapshot* of
    node positions.  Queries transparently refresh the snapshot when it
    is stale; staleness follows the owning world's
    ``snapshot_interval`` (0 means exact per-timestamp snapshots) and a
    backwards-moving clock always makes it stale.

    The deployment area is partitioned into square cells of side
    ``radio_range``; a node's neighbors can then only live in its own
    cell or the 8 surrounding ones, so finding them touches O(k)
    candidates (k = nodes per 9-cell block) regardless of n.

    Per snapshot the backend stores each node's packed cell key (O(n)).
    The CSR adjacency (``indptr`` / ``indices``) is built once per
    snapshot by the first read that needs it -- ``neighbors``,
    ``degrees``, BFS or ``csr`` -- for all up nodes at once
    (:meth:`_build_csr`); ``neighbors(i)`` is then row ``i``.  ``link``
    needs no CSR: it tests the pair's distance on per-snapshot float
    lists.  Administratively-down nodes are excluded from the grid
    entirely: they neither appear as neighbors nor relay.

    A stale refresh whose positions and down mask both equal the
    snapshot's keeps the snapshot, and with it the CSR, the ``link``
    lists and the memoized per-source BFS states, complete or expanded
    part way (an LRU-bounded cache of ``dist_cache_size``); any other refresh
    rebuilds all of it from scratch (:meth:`_update`).

    Parameters
    ----------
    world:
        The owning :class:`~repro.net.world.World` (positions, radio
        range, down mask, clock).
    """

    def __init__(self, world: "World") -> None:
        self.world = world
        n = world.n
        #: most per-source BFS states kept per snapshot
        self.dist_cache_size = 256
        self._snap_time = -1.0
        #: per-source BFS states (:meth:`_bfs_state`), LRU order
        self._dist: "OrderedDict[int, list]" = OrderedDict()
        self._pos: np.ndarray = np.empty((n, 2))
        #: down mask of the current snapshot
        self._down = np.zeros(n, dtype=bool)
        #: packed grid-cell key of every node
        self._key: np.ndarray = np.zeros(n, dtype=np.int64)
        #: CSR adjacency (indptr, indices) of the snapshot, built by the
        #: first read that needs it, or None
        self._csr: Tuple[np.ndarray, np.ndarray] | None = None
        #: ``indptr`` as a list, so a row slice takes plain ints
        self._rows: list = []
        #: per-snapshot x and y float lists for ``link`` (NaN x for a down
        #: node), built by its first call, or None
        self._xy: Optional[Tuple[list, list]] = None
        r = world.radio_range
        self._r2 = r * r
        registry = getattr(world, "registry", None)
        self.registry = registry if registry is not None else Registry()
        counter = self.registry.counter
        self._c_rebuilds = counter("topology.rebuilds", layer="topology")
        self._c_dist_hits = counter("topology.dist_cache_hits", layer="topology")
        self._t_rebuild = self.registry.timer("wall", section="topology.rebuild")
        self._c_csr_builds = counter("topology.csr_builds", layer="topology")

    # ------------------------------------------------------------------
    # snapshot lifecycle
    # ------------------------------------------------------------------
    @property
    def snapshot_time(self) -> float:
        """Time of the current snapshot (-1 when none is valid)."""
        return self._snap_time

    def refresh(self) -> None:
        """Keep or rebuild the snapshot once it no longer covers ``sim.now``."""
        t = self.world.sim.now
        stale = (
            self._snap_time < 0.0
            or t < self._snap_time
            or (t - self._snap_time) > self.world.snapshot_interval
        )
        if not stale:
            return
        pos = self.world.positions()
        down = self.world.down_mask()
        t0 = perf_counter()
        if self._snap_time < 0.0:
            self._rebuild(pos, down)
            changed = True
        else:
            changed = self._update(pos, down)
        self._t_rebuild.add(perf_counter() - t0)
        self._snap_time = t
        self._c_rebuilds.value += 1
        if changed:
            self._dist.clear()

    def invalidate(self) -> None:
        """Drop the snapshot; the next query rebuilds from scratch.

        Invalidation signals an out-of-band state change (churn
        death/revival, energy depletion).
        """
        self._snap_time = -1.0
        self._dist.clear()

    def clear_distance_cache(self) -> None:
        """Forget memoized per-source BFS states (benchmarks)."""
        self._dist.clear()

    def _update(self, pos: np.ndarray, down: np.ndarray) -> bool:
        """The refresh rule: keep the snapshot if neither ``pos`` nor
        ``down`` changed, else rebuild it.  Returns whether it rebuilt."""
        if np.array_equal(pos, self._pos) and np.array_equal(down, self._down):
            return False
        self._rebuild(pos, down)
        return True

    def _rebuild(self, pos: np.ndarray, down: np.ndarray) -> None:
        """Recompute connectivity from ``pos`` (n,2), excluding ``down``."""
        r = self.world.radio_range
        self._pos = pos.copy()
        self._down = down.copy()
        self._r2 = r * r
        cell = np.floor(pos / r).astype(np.int64) + _KOFF
        if cell.size and (cell.min() < 1 or cell.max() >= _KSTRIDE - 1):
            raise ValueError(
                "node positions exceed the grid's coordinate range "
                f"(±{(_KOFF - 2) * r:.0f} m at radio range {r})"
            )
        self._key = cell[:, 0] * _KSTRIDE + cell[:, 1]
        self._csr = None
        self._xy = None

    def _pairs(self) -> np.ndarray:
        """Every in-range pair ``(src, dst)`` of up nodes, packed as
        ``src * n + dst`` and ascending (so sorted by ``src`` then
        ``dst``); vectorized over nodes.

        With the up nodes sorted by cell key, the members of one column
        of a node's 3x3 block are one run of that order: ``searchsorted``
        finds the three runs of every node, ``_gather`` expands them into
        candidate pairs, and the same ``d2 <= r²`` test as :meth:`link`
        filters those.
        """
        key = self._key
        up = (~self._down).nonzero()[0]
        members = up[key[up].argsort()]
        sorted_keys = key[members]
        # the members double as the needles: ascending keys search faster
        column = (_COLUMN_OFFSETS[:, None] + sorted_keys).ravel()
        lo = sorted_keys.searchsorted(column - 1, "left")
        counts = sorted_keys.searchsorted(column + 1, "right") - lo
        src = np.concatenate((members, members, members)).repeat(counts)
        dst = members[_gather(lo, counts)]
        x, y = self._pos.T
        dx, dy = x[src] - x[dst], y[src] - y[dst]
        keep = (dx * dx + dy * dy <= self._r2) & (src != dst)
        packed = (src * self.world.n + dst)[keep]
        packed.sort()
        return packed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def neighbors(self, i: int) -> np.ndarray:
        """Ascending node ids within radio range of ``i`` right now."""
        t, snap = self.world.sim.now, self._snap_time
        # refresh()'s staleness test, inline: most reads find it fresh
        if snap < 0.0 or t < snap or (t - snap) > self.world.snapshot_interval:
            self.refresh()
        if self._csr is None:
            self._require_csr()
        lo, hi = self._rows[i], self._rows[i + 1]
        return self._csr[1][lo:hi]

    def link(self, i: int, j: int) -> bool:
        """Whether a radio link ``i``--``j`` exists right now."""
        t, snap = self.world.sim.now, self._snap_time
        if snap < 0.0 or t < snap or (t - snap) > self.world.snapshot_interval:
            self.refresh()
        if self._xy is None:
            xs = np.where(self._down, np.nan, self._pos[:, 0])
            self._xy = (xs.tolist(), self._pos[:, 1].tolist())
        xs, ys = self._xy
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        # a NaN (down) x fails the test, as a down end has no link
        return i != j and dx * dx + dy * dy <= self._r2

    def degrees(self) -> np.ndarray:
        """(n,) int array of radio degrees right now."""
        indptr, _ = self._require_csr()
        return np.diff(indptr)

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean (n, n) in-range matrix, materialized on demand.

        Kept for analytics and debugging; hot paths must use
        :meth:`link` / :meth:`neighbors` instead.
        """
        indptr, indices = self._require_csr()
        n = self.world.n
        adj = np.zeros((n, n), dtype=bool)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        adj[rows, indices] = True
        adj.flags.writeable = False
        return adj

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, indices)`` of the current snapshot.

        ``indices[indptr[i]:indptr[i+1]]`` are node ``i``'s neighbors in
        ascending order; down nodes have empty rows and appear in no
        row.  This is the zero-copy analytics surface the vectorized
        graph kernels (:mod:`repro.metrics.graphfast`) operate on --
        callers must not mutate the returned arrays and must not hold
        them across refreshes (re-fetch after one).
        """
        return self._require_csr()

    def _require_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        self.refresh()
        if self._csr is None:
            self._csr = self._build_csr()
            self._rows = self._csr[0].tolist()
            self._c_csr_builds.value += 1
        return self._csr

    def _build_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every up node's row at once, from :meth:`_pairs`."""
        n = self.world.n
        packed = self._pairs()
        # row i holds the keys in [i * n, (i + 1) * n)
        indptr = packed.searchsorted(np.arange(0, n * n + 1, n))
        indices = packed % n
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return indptr, indices

    def hops_from(self, src: int) -> np.ndarray:
        """Hop distance from ``src`` to every node (LRU-memoized BFS;
        the vector is read-only, shared by every caller in the snapshot)."""
        self.refresh()
        state = self._bfs_state(src)
        while state[1] is not None:
            self._expand(state)
        return state[0]

    def _bfs_state(self, src: int) -> list:
        """``src``'s memoized BFS ``[dist, frontier, depth]``: ``dist``
        holds every node within ``depth`` hops, ``frontier`` the nodes at
        ``depth``, or None once ``dist`` is complete (and read-only).

        A new state has its first level expanded, so an up source always
        reads the CSR, whatever it is asked.
        """
        state = self._dist.get(src)
        if state is not None:
            self._dist.move_to_end(src)
            self._c_dist_hits.value += 1
            return state
        dist = np.full(self.world.n, UNREACHABLE, dtype=np.int32)
        if self._down[src]:
            dist.flags.writeable = False
            state = [dist, None, 0]
        else:
            dist[src] = 0
            state = [dist, np.array([src], dtype=np.int64), 0]
            self._expand(state)
        self._dist[src] = state
        if len(self._dist) > self.dist_cache_size:
            self._dist.popitem(last=False)
        return state

    def _expand(self, state: list) -> None:
        """Label the next BFS level of ``state`` (see :meth:`_bfs_state`)."""
        dist, frontier, depth = state
        nxt = self._level(dist, frontier)
        if not nxt.size:
            state[1] = None
            dist.flags.writeable = False
            return
        depth += 1
        dist[nxt] = depth
        state[1] = np.flatnonzero(dist == depth)
        state[2] = depth

    def _level(self, dist: np.ndarray, frontier: np.ndarray) -> np.ndarray:
        """The unlabelled neighbours of ``frontier`` (repeats allowed):
        every CSR row of the frontier in one gather."""
        indptr, indices = self._csr or self._require_csr()
        starts = indptr[frontier]
        cand = indices[_gather(starts, indptr[frontier + 1] - starts)]
        return cand[dist[cand] == UNREACHABLE]

    def link_count(self) -> int:
        """Number of undirected radio links right now."""
        return int(self.degrees().sum()) // 2

    def hop_distance(self, a: int, b: int) -> int:
        """Hops between ``a`` and ``b`` now; UNREACHABLE if disconnected.

        Expands ``a``'s memoized BFS only until ``b`` is labelled.
        """
        self.refresh()
        state = self._bfs_state(a)
        dist = state[0]
        while dist[b] == UNREACHABLE and state[1] is not None:
            self._expand(state)
        return int(dist[b])

    def reachable(self, a: int, b: int) -> bool:
        """Whether a multi-hop path currently exists between the nodes."""
        return self.hop_distance(a, b) != UNREACHABLE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} n={self.world.n} t={self._snap_time:.3f}>"


def _gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index runs ``starts[k] .. starts[k] + counts[k]``, concatenated."""
    run_base = (starts - counts.cumsum() + counts).repeat(counts)
    run_base += np.arange(run_base.size, dtype=np.int64)
    return run_base
