"""Physical-topology backends, chosen by node count.

The physical substrate answers four questions for every layer above it:
"who is in range of ``i``?", "is there a link ``i``--``j``?", "how many
ad-hoc hops from ``src`` to everyone?" and "are ``a`` and ``b``
connected at all?".  :class:`~repro.net.world.World` used to answer them
from one dense O(n²) adjacency matrix -- exactly right at the paper's
n = 50..150, hopeless at the thousands of nodes large-MANET work (CARD,
unstructured-overlay studies) cares about.

This module extracts those queries into a backend interface with two
interchangeable implementations, and :func:`make_topology` picks one
from the node count (sparse from :data:`SPARSE_MIN_NODES` nodes up):

:class:`DenseTopology`
    The reference implementation, and the backend at paper scale: one
    vectorized O(n²) pairwise-distance pass per snapshot, a boolean
    (n, n) matrix, BFS by vectorized frontier expansion over matrix
    rows.  O(1) ``link``, O(n) ``neighbors``, O(n²) memory.

:class:`SparseGridTopology`
    A uniform-grid spatial index with cell size equal to the radio
    range, so a neighbor query inspects at most 9 cells instead of a
    row of n.  A CSR-style adjacency is built lazily (first graph-wide
    query per snapshot), BFS runs frontier-at-a-time over the CSR
    arrays, and per-source distance vectors are memoized under an LRU
    bound.  O(n·k) time and memory per snapshot at bounded density k --
    the regime where n grows but the node density (and hence the mean
    degree) stays fixed.

Both backends share snapshot lifecycle and staleness policy (the
``snapshot_interval`` quantum, backwards-clock protection, churn
invalidation) through :class:`TopologyBackend`, and are required by the
A/B equivalence suite (``tests/test_net_topology.py``) to agree exactly
on neighbor sets and hop distances.

Every refresh after the first is a *delta* against the previous
snapshot: the backend diffs the new positions/down mask, unmoved nodes
keep their state, the sparse grid re-bins only nodes whose cell
changed, and -- when few enough nodes moved to be worth proving (at
most ``max(8, n // 4)``) and a cache exists -- an unchanged adjacency
keeps the BFS distance cache and the CSR across the refresh.  The
from-scratch rebuild survives as :meth:`TopologyBackend._update`'s base
fallback, which the test suite binds onto a backend as the reference
the delta path must match bit for bit.

Cache validity is tracked by an **adjacency epoch**
(:attr:`TopologyBackend.adjacency_epoch`): a counter that advances only
when the edge set may actually have changed, never on mere clock
movement.  Consumers that memoize derived graph state should key it on
the epoch instead of ``snapshot_time`` (see DESIGN.md).
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..obs.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (world imports us)
    from .world import World

__all__ = [
    "UNREACHABLE",
    "TopologyBackend",
    "DenseTopology",
    "SparseGridTopology",
    "SPARSE_MIN_NODES",
    "make_topology",
]

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


class TopologyBackend(abc.ABC):
    """Snapshot lifecycle + query interface shared by all backends.

    A backend owns the connectivity state derived from one *snapshot* of
    node positions.  Queries transparently refresh the snapshot when it
    is stale; staleness follows the owning world's
    ``snapshot_interval`` (0 means exact per-timestamp snapshots) and a
    backwards-moving clock always forces a refresh.

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

    #: ``backend`` label on the topology counters ("dense" / "sparse")
    name = "abstract"

    def __init__(self, world: "World") -> None:
        self.world = world
        #: most per-source distance vectors kept per snapshot
        self.dist_cache_size = 256
        self._snap_time = -1.0
        self._epoch = 0
        self._dist: "OrderedDict[int, np.ndarray]" = OrderedDict()
        #: down mask of the current snapshot (subclasses refresh it)
        self._down = np.zeros(world.n, dtype=bool)
        registry = getattr(world, "registry", None)
        self.registry = registry if registry is not None else Registry()
        labels = {"layer": "topology", "backend": type(self).name}
        self._c_rebuilds = self.registry.counter("topology.rebuilds", **labels)
        self._c_delta = self.registry.counter("topology.delta_rebuilds", **labels)
        self._c_moved = self.registry.counter("topology.moved_nodes", **labels)
        self._c_dist_hits = self.registry.counter("topology.dist_cache_hits", **labels)
        self._t_rebuild = self.registry.timer("wall", section="topology.rebuild")

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

    @abc.abstractmethod
    def _rebuild(self, pos: np.ndarray, down: np.ndarray) -> None:
        """Recompute connectivity from ``pos`` (n,2), excluding ``down``."""

    def _update(self, pos: np.ndarray, down: np.ndarray) -> bool:
        """Incrementally refresh from the previous snapshot.

        Returns whether the adjacency may have changed (``True`` forces
        an epoch bump and a distance-cache flush).  This base fallback
        is a full rebuild -- the reference the backends' real deltas
        are tested against.
        """
        self._rebuild(pos, down)
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def neighbors(self, i: int) -> np.ndarray:
        """Ascending node ids within radio range of ``i`` right now."""

    @abc.abstractmethod
    def link(self, i: int, j: int) -> bool:
        """Whether a radio link ``i``--``j`` exists right now."""

    @abc.abstractmethod
    def degrees(self) -> np.ndarray:
        """(n,) int array of radio degrees right now."""

    @abc.abstractmethod
    def adjacency_matrix(self) -> np.ndarray:
        """Boolean (n, n) in-range matrix (may be materialized on demand).

        Kept for analytics and debugging; hot paths must use
        :meth:`link` / :meth:`neighbors` instead, which every backend
        answers without touching an O(n²) structure.
        """

    @abc.abstractmethod
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, indices)`` of the current snapshot.

        ``indices[indptr[i]:indptr[i+1]]`` are node ``i``'s neighbors in
        ascending order; down nodes have empty rows and appear in no
        row.  This is the zero-copy analytics surface the vectorized
        graph kernels (:mod:`repro.metrics.graphfast`) operate on --
        callers must not mutate the returned arrays and must not hold
        them across refreshes (re-fetch per :attr:`adjacency_epoch`).
        """

    @abc.abstractmethod
    def _bfs(self, src: int) -> np.ndarray:
        """Uncached single-source hop distances on the current snapshot."""

    def hops_from(self, src: int) -> np.ndarray:
        """Hop distance from ``src`` to every node (LRU-memoized BFS)."""
        self.refresh()
        cached = self._dist.get(src)
        if cached is not None:
            self._dist.move_to_end(src)
            self._c_dist_hits.value += 1
            return cached
        dist = self._bfs(src)
        self._dist[src] = dist
        if len(self._dist) > self.dist_cache_size:
            self._dist.popitem(last=False)
        return dist

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


class DenseTopology(TopologyBackend):
    """Reference backend: boolean (n, n) matrix + vectorized BFS.

    One O(n²) pairwise-distance pass per snapshot; every query is then a
    matrix row / element.  Sub-millisecond at the paper's n = 50..150
    and the ground truth the sparse backend is checked against.

    A refresh short-circuits when nothing moved and otherwise compares
    the freshly built matrix against the previous one (O(n²) bool
    compare, cheap next to the rebuild itself) so an unchanged
    adjacency keeps the distance cache and the epoch.
    """

    name = "dense"

    def __init__(self, world: "World") -> None:
        super().__init__(world)
        n = world.n
        self._adj: np.ndarray = np.zeros((n, n), dtype=bool)
        self._down = np.zeros(n, dtype=bool)
        self._pos: Optional[np.ndarray] = None
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _rebuild(self, pos: np.ndarray, down: np.ndarray) -> None:
        diff = pos[:, None, :] - pos[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        adj = d2 <= self.world.radio_range**2
        np.fill_diagonal(adj, False)
        if down.any():
            adj[down, :] = False
            adj[:, down] = False
        self._adj = adj
        self._down = down.copy()
        self._pos = pos.copy()
        self._csr = None

    def _update(self, pos: np.ndarray, down: np.ndarray) -> bool:
        if self._pos is not None and np.array_equal(down, self._down):
            touched = np.flatnonzero((pos != self._pos).any(axis=1))
            if touched.size == 0:
                return False  # nobody moved: snapshot carries over wholesale
            self._c_moved.value += int(touched.size)
        old_adj = self._adj
        self._rebuild(pos, down)
        return not np.array_equal(old_adj, self._adj)

    # -- queries -------------------------------------------------------
    def neighbors(self, i: int) -> np.ndarray:
        self.refresh()
        return np.flatnonzero(self._adj[i])

    def link(self, i: int, j: int) -> bool:
        self.refresh()
        return bool(self._adj[i, j])

    def degrees(self) -> np.ndarray:
        self.refresh()
        return self._adj.sum(axis=1)

    def adjacency_matrix(self) -> np.ndarray:
        self.refresh()
        return self._adj

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        self.refresh()
        if self._csr is None:
            adj = self._adj
            n = adj.shape[0]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(adj.sum(axis=1), out=indptr[1:])
            # Row-major flatnonzero yields each row's columns ascending.
            indices = np.flatnonzero(adj) % n
            self._csr = (indptr, indices.astype(np.int64, copy=False))
        return self._csr

    def _bfs(self, src: int) -> np.ndarray:
        n = self.world.n
        dist = np.full(n, UNREACHABLE, dtype=np.int32)
        if self._down[src]:
            return dist
        adj = self._adj
        dist[src] = 0
        frontier = np.zeros(n, dtype=bool)
        frontier[src] = True
        visited = frontier.copy()
        d = 0
        while frontier.any():
            d += 1
            # all nodes adjacent to the frontier, not yet visited
            nxt = adj[frontier].any(axis=0) & ~visited
            if not nxt.any():
                break
            dist[nxt] = d
            visited |= nxt
            frontier = nxt
        return dist


class SparseGridTopology(TopologyBackend):
    """Sparse backend: uniform-grid spatial index + lazy CSR adjacency.

    The deployment area is partitioned into square cells of side
    ``radio_range``; a node's neighbors can then only live in its own
    cell or the 8 surrounding ones, so a neighbor query touches O(k)
    candidates (k = nodes per 9-cell block) regardless of n.

    Per snapshot the backend stores only node->cell assignments and a
    cell->members index (O(n)).  The full CSR adjacency (``indptr`` /
    ``indices``) is built *lazily* -- only when a graph-wide query (BFS,
    degrees) first needs it -- by intersecting each occupied cell with
    its 3x3 neighborhood, vectorized per cell.  Administratively-down
    nodes are excluded from the grid entirely: they neither appear as
    neighbors nor relay.

    A refresh diffs positions against the previous snapshot: paused
    nodes (bitwise-identical positions -- the common case under
    random-waypoint pauses) cost nothing, only nodes whose grid cell
    changed are re-binned, and when few enough nodes moved the
    backend proves whether any link actually flipped (old vs new
    neighbor sets of the movers) to keep the CSR, the per-node neighbor
    memos and the BFS distance cache alive across the refresh.
    """

    name = "sparse"

    def __init__(self, world: "World") -> None:
        super().__init__(world)
        n = world.n
        self._pos: np.ndarray = np.empty((n, 2))
        self._down = np.zeros(n, dtype=bool)
        self._cell: np.ndarray = np.zeros((n, 2), dtype=np.int64)
        self._key: np.ndarray = np.zeros(n, dtype=np.int64)
        #: cell key -> np.ndarray of member node ids (up nodes only)
        self._grid: Dict[int, np.ndarray] = {}
        #: lazily-built CSR adjacency (indptr, indices) or None
        self._csr: Tuple[np.ndarray, np.ndarray] | None = None
        #: per-node neighbor memo for the current snapshot
        self._nbr: Dict[int, np.ndarray] = {}
        r = world.radio_range
        self._r2 = r * r
        #: most movers an adjacency-preservation proof is attempted for:
        #: the proof costs O(movers · degree) and past a quarter of the
        #: nodes it almost never succeeds
        self.max_proof_movers = max(8, n // 4)
        # CSR builds performed (should be << rebuilds for neighbor-only
        # workloads)
        self._c_csr_builds = self.registry.counter(
            "topology.csr_builds", layer="topology", backend=type(self).name
        )

    # ------------------------------------------------------------------
    def _cells_of(self, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Grid cells ``(m, 2)`` and packed cell keys ``(m,)`` of ``pos``."""
        r = self.world.radio_range
        cell = np.floor(pos / r).astype(np.int64) + _KOFF
        if cell.size and (cell.min() < 1 or cell.max() >= _KSTRIDE - 1):
            raise ValueError(
                "node positions exceed the sparse grid's coordinate range "
                f"(±{(_KOFF - 2) * r:.0f} m at radio range {r})"
            )
        return cell, cell[:, 0] * _KSTRIDE + cell[:, 1]

    def _rebuild(self, pos: np.ndarray, down: np.ndarray) -> None:
        r = self.world.radio_range
        self._pos = pos.copy()
        self._down = down.copy()
        self._r2 = r * r
        self._cell, keys = self._cells_of(pos)
        self._key = keys
        up = np.flatnonzero(~down)
        order = up[np.argsort(keys[up], kind="stable")]
        sorted_keys = keys[order]
        uniq, starts = np.unique(sorted_keys, return_index=True)
        bounds = np.append(starts, len(order))
        self._grid = {
            int(k): order[s:e] for k, s, e in zip(uniq, bounds[:-1], bounds[1:])
        }
        self._csr = None
        self._nbr = {}

    # -- delta refresh -------------------------------------------------
    def _update(self, pos: np.ndarray, down: np.ndarray) -> bool:
        if not np.array_equal(down, self._down):
            # Up-set changes normally arrive via invalidate(); if one
            # reaches us directly, the conservative answer is a rebuild.
            self._rebuild(pos, down)
            return True
        touched = np.flatnonzero((pos != self._pos).any(axis=1))
        if touched.size == 0:
            return False  # every node paused: the snapshot carries over
        self._c_moved.value += int(touched.size)
        new_pos = pos[touched]
        # Proving "no link flipped" costs two neighbor computations per
        # mover and only preserves anything if a distance cache / CSR
        # exists.
        movers = touched[~self._down[touched]]
        prove = (
            self._dist or self._csr is not None
        ) and movers.size <= self.max_proof_movers
        old_lists = self._mover_neighbor_lists(movers, self._pos) if prove else None

        # Surgical re-bin: only movers whose cell changed.
        new_cell, new_key = self._cells_of(new_pos)
        for idx in np.flatnonzero(new_key != self._key[touched]):
            i = int(touched[idx])
            if self._down[i]:
                continue  # down nodes are not in the grid
            self._grid_remove(int(self._key[i]), i)
            self._grid_add(int(new_key[idx]), i)
        self._cell[touched] = new_cell
        self._key[touched] = new_key
        self._pos[touched] = new_pos

        if old_lists is not None:
            new_lists = self._mover_neighbor_lists(movers, self._pos)
            if all(
                np.array_equal(a, b) for a, b in zip(old_lists, new_lists)
            ):
                # Links between two movers and mover--pauser links both
                # surface in some mover's list, and pauser--pauser links
                # cannot change: the adjacency is provably intact, so
                # the CSR, neighbor memos and distance cache stay warm.
                return False
        self._csr = None
        self._nbr = {}
        return True

    def _grid_remove(self, key: int, i: int) -> None:
        members = self._grid.get(key)
        if members is None:
            return
        members = members[members != i]
        if members.size:
            self._grid[key] = members
        else:
            del self._grid[key]

    def _grid_add(self, key: int, i: int) -> None:
        members = self._grid.get(key)
        if members is None:
            self._grid[key] = np.array([i], dtype=np.int64)
        else:
            at = int(np.searchsorted(members, i))
            self._grid[key] = np.insert(members, at, i)

    def _mover_neighbor_lists(self, movers: np.ndarray, pos: np.ndarray) -> list:
        """Neighbor sets of ``movers`` under ``pos`` + the current grid.

        Grouped by cell so each 3x3 block is intersected once,
        vectorized -- the same arithmetic as :meth:`neighbors`, so the
        adjacency proof uses the query plane's own answers.
        """
        out: list = [None] * len(movers)
        if not len(movers):
            return out
        keys = self._key[movers]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        group_starts = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        bounds = np.append(group_starts, len(movers))
        for s, e in zip(bounds[:-1], bounds[1:]):
            rows = order[s:e]
            members = movers[rows]
            i0 = int(members[0])
            cand = self._cell_block(int(self._cell[i0, 0]), int(self._cell[i0, 1]))
            if not cand.size:
                for row in rows:
                    out[row] = np.empty(0, dtype=np.int64)
                continue
            diff = pos[members][:, None, :] - pos[cand][None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            in_range = d2 <= self._r2
            for local, row in enumerate(rows):
                i = int(members[local])
                hits = cand[in_range[local]]
                out[row] = np.sort(hits[hits != i])
        return out

    def _cell_block(self, cx: int, cy: int) -> np.ndarray:
        """Candidate node ids in the 3x3 cell block around ``(cx, cy)``."""
        chunks = []
        for dx in (-1, 0, 1):
            base = (cx + dx) * _KSTRIDE + cy
            for dy in (-1, 0, 1):
                members = self._grid.get(base + dy)
                if members is not None:
                    chunks.append(members)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    # -- queries -------------------------------------------------------
    def neighbors(self, i: int) -> np.ndarray:
        self.refresh()
        cached = self._nbr.get(i)
        if cached is not None:
            return cached
        if self._down[i]:
            result = np.empty(0, dtype=np.int64)
        else:
            cand = self._cell_block(int(self._cell[i, 0]), int(self._cell[i, 1]))
            diff = self._pos[cand] - self._pos[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            result = np.sort(cand[(d2 <= self._r2) & (cand != i)])
        self._nbr[i] = result
        return result

    def link(self, i: int, j: int) -> bool:
        self.refresh()
        if i == j or self._down[i] or self._down[j]:
            return False
        diff = self._pos[i] - self._pos[j]
        return bool(diff[0] * diff[0] + diff[1] * diff[1] <= self._r2)

    def degrees(self) -> np.ndarray:
        indptr, _ = self._require_csr()
        return np.diff(indptr)

    def adjacency_matrix(self) -> np.ndarray:
        # Materialized on demand for analytics/tests; not a hot path.
        indptr, indices = self._require_csr()
        n = self.world.n
        adj = np.zeros((n, n), dtype=bool)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        adj[rows, indices] = True
        return adj

    # -- CSR adjacency -------------------------------------------------
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._require_csr()

    def _require_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        self.refresh()
        if self._csr is None:
            self._csr = self._build_csr()
            self._c_csr_builds.value += 1
        return self._csr

    def _build_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Intersect each occupied cell with its 3x3 block, vectorized."""
        n = self.world.n
        nbr_lists: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        empty = np.empty(0, dtype=np.int64)
        for key, members in self._grid.items():
            cx, cy = divmod(key, _KSTRIDE)
            cand = self._cell_block(int(cx), int(cy))
            diff = self._pos[members][:, None, :] - self._pos[cand][None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            in_range = d2 <= self._r2
            for row, i in enumerate(members):
                hits = cand[in_range[row]]
                nbr_lists[i] = np.sort(hits[hits != i])
        counts = np.array(
            [0 if lst is None else len(lst) for lst in nbr_lists], dtype=np.int64
        )
        indptr = np.concatenate(([0], np.cumsum(counts)))
        if int(indptr[-1]) == 0:
            return indptr, empty
        indices = np.concatenate([lst for lst in nbr_lists if lst is not None and len(lst)])
        return indptr, indices

    # -- BFS -----------------------------------------------------------
    def _bfs(self, src: int) -> np.ndarray:
        n = self.world.n
        dist = np.full(n, UNREACHABLE, dtype=np.int32)
        if self._down[src]:
            return dist
        indptr, indices = self._require_csr()
        dist[src] = 0
        frontier = np.array([src], dtype=np.int64)
        d = 0
        while frontier.size:
            d += 1
            chunks = [indices[indptr[v] : indptr[v + 1]] for v in frontier]
            cand = np.unique(np.concatenate(chunks)) if chunks else np.empty(0, np.int64)
            nxt = cand[dist[cand] == UNREACHABLE]
            if not nxt.size:
                break
            dist[nxt] = d
            frontier = nxt
        return dist


#: Node count from which :func:`make_topology` picks the sparse grid.
#: Below it the dense matrix is faster end to end: at paper size
#: ``neighbors()`` reads outnumber refreshes 20-70 to one, and the grid
#: answers them ~2.3x slower (docs/PERFORMANCE.md, "Sizing one backend").
SPARSE_MIN_NODES = 400


def make_topology(world: "World") -> TopologyBackend:
    """The backend for ``world``, chosen from its node count alone.

    :class:`SparseGridTopology` iff ``world.n >= SPARSE_MIN_NODES``,
    :class:`DenseTopology` otherwise.  The two answer every query
    identically, so the choice moves wall time, never a result.
    """
    if world.n >= SPARSE_MIN_NODES:
        return SparseGridTopology(world)
    return DenseTopology(world)
