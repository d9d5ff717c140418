"""Physical-topology service: one uniform-grid connectivity backend.

The physical substrate answers four questions for every layer above it:
"who is in range of ``i``?", "is there a link ``i``--``j``?", "how many
ad-hoc hops from ``src`` to everyone?" and "are ``a`` and ``b``
connected at all?".  :class:`TopologyBackend` answers all of them at
every node count, from the paper's n = 50..150 to the thousands of nodes
large-MANET work (CARD, unstructured-overlay studies) cares about.

It is a uniform-grid spatial index with cell size equal to the radio
range, so a node's candidates live in at most 9 cells instead of a row
of n.  One CSR adjacency per adjacency epoch, built by whichever read
first needs it in nine vectorized cell-offset passes, answers
``neighbors`` (a row slice), ``degrees`` and BFS (frontier-at-a-time
over the CSR arrays); per-source distance vectors are memoized under an
LRU bound.  O(n·k) time and memory per snapshot at bounded density k --
the regime where n grows but the node density (and hence the mean
degree) stays fixed.  The test suite holds it to an O(n²) dense-matrix
oracle (``tests/test_net_topology.py``): neighbor sets and hop distances
must agree exactly.

Every refresh after the first is a *delta* against the previous
snapshot: the backend diffs the new positions/down mask, unmoved nodes
keep their state, only the movers are re-keyed, and -- when few enough
nodes moved to be worth proving (at most ``max(8, n // 4)``) and a cache
exists -- an unchanged adjacency keeps the BFS distance cache and the
CSR across the refresh.  The test suite checks the delta path bit for
bit against a from-scratch rebuild on every refresh.

Every array a query hands out -- neighbour rows, the CSR, the adjacency
matrix, cached hop-distance vectors -- is shared snapshot state and
read-only: writing to one raises ``ValueError``.

Cache validity is tracked by an **adjacency epoch**
(:attr:`TopologyBackend.adjacency_epoch`): a counter that advances only
when the edge set may actually have changed, never on mere clock
movement.  Consumers that memoize derived graph state should key it on
the epoch instead of ``snapshot_time`` (see DESIGN.md).
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

#: Stable grid-key packing: cell (cx, cy) -> (cx + _KOFF) * _KSTRIDE +
#: (cy + _KOFF).  Unlike a per-snapshot normalization, keys stay
#: comparable across snapshots, which is what lets a refresh re-bin
#: only the nodes whose cell changed.  Collision-free while every cell
#: coordinate stays within ±(_KOFF - 2) -- at a 10 m radio range that is
#: a deployment area of ~10,000 km per axis.
_KOFF = 1 << 20
_KSTRIDE = 1 << 21
#: packed-key offsets of the three cell columns of a 3x3 block; within a
#: column, cells ``cy - 1 .. cy + 1`` are consecutive keys
_COLUMN_OFFSETS = np.array([-_KSTRIDE, 0, _KSTRIDE])


class TopologyBackend:
    """Uniform-grid spatial index + one CSR adjacency per epoch.

    A backend owns the connectivity state derived from one *snapshot* of
    node positions.  Queries transparently refresh the snapshot when it
    is stale; staleness follows the owning world's
    ``snapshot_interval`` (0 means exact per-timestamp snapshots) and a
    backwards-moving clock always forces a refresh.

    The deployment area is partitioned into square cells of side
    ``radio_range``; a node's neighbors can then only live in its own
    cell or the 8 surrounding ones, so finding them touches O(k)
    candidates (k = nodes per 9-cell block) regardless of n.

    Per snapshot the backend stores each node's packed cell key (O(n)).
    The CSR adjacency (``indptr`` / ``indices``) is built once per
    adjacency epoch by the first read that needs it -- ``neighbors``,
    ``degrees``, BFS or ``csr`` -- for all up nodes at once
    (:meth:`_build_csr`); ``neighbors(i)`` is then row ``i``.  ``link``
    needs no CSR: it tests the pair's distance on per-snapshot float
    lists.  Administratively-down nodes are excluded from the grid
    entirely: they neither appear as neighbors nor relay.

    A refresh diffs positions against the previous snapshot: paused
    nodes (bitwise-identical positions -- the common case under
    random-waypoint pauses) cost nothing, only movers get new cell keys,
    and when few enough nodes moved the backend proves whether any link
    actually flipped (old vs new in-range pairs of the movers) to keep
    the CSR and the BFS distance cache alive across the refresh.

    Per-source hop-distance vectors are memoized in an LRU-bounded cache
    (``dist_cache_size``).  The cache is keyed to the **adjacency
    epoch**, not the snapshot timestamp: it is flushed only when a
    refresh may have changed the edge set, so hop distances survive
    refreshes that moved nobody (or moved nodes without flipping any
    link).

    Parameters
    ----------
    world:
        The owning :class:`~repro.net.world.World` (positions, radio
        range, down mask, clock).
    """

    def __init__(self, world: "World") -> None:
        self.world = world
        n = world.n
        #: most per-source distance vectors kept per snapshot
        self.dist_cache_size = 256
        self._snap_time = -1.0
        self._epoch = 0
        self._dist: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._pos: np.ndarray = np.empty((n, 2))
        #: down mask of the current snapshot
        self._down = np.zeros(n, dtype=bool)
        #: packed grid-cell key of every node
        self._key: np.ndarray = np.zeros(n, dtype=np.int64)
        #: CSR adjacency (indptr, indices) of the adjacency epoch, built
        #: by the first read that needs it, or None
        self._csr: Tuple[np.ndarray, np.ndarray] | None = None
        #: ``indptr`` as a list, so a row slice takes plain ints
        self._rows: list = []
        #: per-snapshot x and y float lists for ``link`` (NaN x for a down
        #: node), built by its first call, or None
        self._xy: Optional[Tuple[list, list]] = None
        r = world.radio_range
        self._r2 = r * r
        #: most movers an adjacency-preservation proof is attempted for:
        #: past a quarter of the nodes it almost never succeeds
        self.max_proof_movers = max(8, n // 4)
        registry = getattr(world, "registry", None)
        self.registry = registry if registry is not None else Registry()
        counter = self.registry.counter
        self._c_rebuilds = counter("topology.rebuilds", layer="topology")
        self._c_delta = counter("topology.delta_rebuilds", layer="topology")
        self._c_moved = counter("topology.moved_nodes", layer="topology")
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

    @property
    def adjacency_epoch(self) -> int:
        """Counter advanced whenever the edge set may have changed.

        Consumers memoizing graph-derived state (hop distances, CSR
        views, component labels) must key their caches on this value,
        not on ``snapshot_time``: the epoch stands still across
        refreshes that provably kept the adjacency, so caches survive
        pure clock movement.
        """
        return self._epoch

    def refresh(self) -> None:
        """Rebuild the snapshot if it no longer covers ``sim.now``."""
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
        if self._snap_time >= 0.0:
            changed = self._update(pos, down)
            self._c_delta.value += 1
        else:
            self._rebuild(pos, down)
            changed = True
        self._t_rebuild.add(perf_counter() - t0)
        self._snap_time = t
        self._c_rebuilds.value += 1
        if changed:
            self._epoch += 1
            self._dist.clear()

    def invalidate(self) -> None:
        """Drop the snapshot; the next query recomputes everything.

        Invalidation signals an out-of-band state change (churn
        death/revival, energy depletion), so the next refresh rebuilds
        from scratch instead of diffing.
        """
        self._snap_time = -1.0
        self._dist.clear()
        self._epoch += 1

    def clear_distance_cache(self) -> None:
        """Forget memoized per-source distance vectors (benchmarks)."""
        self._dist.clear()

    def _keys_of(self, pos: np.ndarray) -> np.ndarray:
        """Packed grid-cell keys ``(m,)`` of the positions ``pos``."""
        r = self.world.radio_range
        cell = np.floor(pos / r).astype(np.int64) + _KOFF
        if cell.size and (cell.min() < 1 or cell.max() >= _KSTRIDE - 1):
            raise ValueError(
                "node positions exceed the grid's coordinate range "
                f"(±{(_KOFF - 2) * r:.0f} m at radio range {r})"
            )
        return cell[:, 0] * _KSTRIDE + cell[:, 1]

    def _rebuild(self, pos: np.ndarray, down: np.ndarray) -> None:
        """Recompute connectivity from ``pos`` (n,2), excluding ``down``."""
        r = self.world.radio_range
        self._pos = pos.copy()
        self._down = down.copy()
        self._r2 = r * r
        self._key = self._keys_of(pos)
        self._csr = None
        self._xy = None

    # -- delta refresh -------------------------------------------------
    def _update(self, pos: np.ndarray, down: np.ndarray) -> bool:
        """Incrementally refresh from the previous snapshot.

        Returns whether the adjacency may have changed (``True`` forces
        an epoch bump and a distance-cache flush).
        """
        if not np.array_equal(down, self._down):
            # Up-set changes normally arrive via invalidate(); if one
            # reaches us directly, the conservative answer is a rebuild.
            self._rebuild(pos, down)
            return True
        touched = np.flatnonzero((pos != self._pos).any(axis=1))
        if touched.size == 0:
            return False  # every node paused: the snapshot carries over
        self._c_moved.value += int(touched.size)
        self._xy = None
        new_pos = pos[touched]
        # Proving "no link flipped" only preserves anything if a CSR
        # (and with it maybe a distance cache) exists.
        movers = touched[~self._down[touched]]
        prove = (
            self._dist or self._csr is not None
        ) and movers.size <= self.max_proof_movers
        old_pairs = self._mover_neighbor_lists(movers, self._pos) if prove else None
        self._key[touched] = self._keys_of(new_pos)
        self._pos[touched] = new_pos
        if old_pairs is not None:
            new_pairs = self._mover_neighbor_lists(movers, self._pos)
            if all(np.array_equal(a, b) for a, b in zip(old_pairs, new_pairs)):
                # Links between two movers and mover--pauser links both
                # surface in some mover's pairs, and pauser--pauser links
                # cannot change: the adjacency is provably intact, so
                # the CSR and the distance cache stay warm.
                return False
        self._csr = None
        return True

    def _mover_neighbor_lists(
        self, movers: np.ndarray, pos: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The adjacency proof's read: the in-range pairs of ``movers``
        under ``pos`` and the current cell keys, as :meth:`_pairs`."""
        return self._pairs(movers, pos)

    def _pairs(self, nodes: np.ndarray, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every in-range pair ``(src, dst)`` of up nodes with ``src`` in
        ``nodes``, sorted by ``src`` then ``dst``; vectorized over nodes.

        With the up nodes sorted by cell key, the members of one column
        of a node's 3x3 block are one run of that order: ``searchsorted``
        finds the three runs of every node, ``_gather`` expands them into
        candidate pairs, and the same ``d2 <= r²`` test as :meth:`link`
        filters those.
        """
        key = self._key
        up = np.flatnonzero(~self._down)
        members = up[np.argsort(key[up])]
        sorted_keys = key[members]
        nodes = nodes[np.argsort(key[nodes])]  # ascending needles search faster
        column = (_COLUMN_OFFSETS[:, None] + key[nodes]).ravel()
        lo = np.searchsorted(sorted_keys, column - 1, side="left")
        counts = np.searchsorted(sorted_keys, column + 1, side="right") - lo
        src = np.repeat(np.tile(nodes, len(_COLUMN_OFFSETS)), counts)
        dst = members[_gather(lo, counts)]
        x, y = pos[:, 0], pos[:, 1]
        dx, dy = x[src] - x[dst], y[src] - y[dst]
        keep = (dx * dx + dy * dy <= self._r2) & (src != dst)
        src, dst = src[keep], dst[keep]
        row_major = np.argsort(src * self.world.n + dst)
        return src[row_major], dst[row_major]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def neighbors(self, i: int) -> np.ndarray:
        """Ascending node ids within radio range of ``i`` right now."""
        self.refresh()
        if self._csr is None:
            self._require_csr()
        lo, hi = self._rows[i], self._rows[i + 1]
        return self._csr[1][lo:hi]

    def link(self, i: int, j: int) -> bool:
        """Whether a radio link ``i``--``j`` exists right now."""
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
        them across refreshes (re-fetch per :attr:`adjacency_epoch`).
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
        src, indices = self._pairs(np.flatnonzero(~self._down), self._pos)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return indptr, indices

    def hops_from(self, src: int) -> np.ndarray:
        """Hop distance from ``src`` to every node (LRU-memoized BFS;
        the vector is read-only, shared by every caller in the epoch)."""
        self.refresh()
        cached = self._dist.get(src)
        if cached is not None:
            self._dist.move_to_end(src)
            self._c_dist_hits.value += 1
            return cached
        dist = self._bfs(src)
        dist.flags.writeable = False
        self._dist[src] = dist
        if len(self._dist) > self.dist_cache_size:
            self._dist.popitem(last=False)
        return dist

    def _bfs(self, src: int) -> np.ndarray:
        """Uncached single-source hop distances on the current snapshot."""
        n = self.world.n
        dist = np.full(n, UNREACHABLE, dtype=np.int32)
        if self._down[src]:
            return dist
        indptr, indices = self._require_csr()
        dist[src] = 0
        frontier = np.array([src], dtype=np.int64)
        d = 0
        while True:
            # every CSR row of the frontier in one gather; a node reached
            # twice is just assigned twice
            starts = indptr[frontier]
            cand = indices[_gather(starts, indptr[frontier + 1] - starts)]
            nxt = cand[dist[cand] == UNREACHABLE]
            if not nxt.size:
                return dist
            d += 1
            dist[nxt] = d
            frontier = np.flatnonzero(dist == d)

    def link_count(self) -> int:
        """Number of undirected radio links right now."""
        return int(self.degrees().sum()) // 2

    def hop_distance(self, a: int, b: int) -> int:
        """Hops between ``a`` and ``b`` now; UNREACHABLE if disconnected."""
        return int(self.hops_from(a)[b])

    def reachable(self, a: int, b: int) -> bool:
        """Whether a multi-hop path currently exists between the nodes."""
        return self.hop_distance(a, b) != UNREACHABLE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} n={self.world.n} t={self._snap_time:.3f}>"


def _gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index runs ``starts[k] .. starts[k] + counts[k]``, concatenated."""
    total = int(counts.sum())
    run_base = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return run_base + np.arange(total, dtype=np.int64)
