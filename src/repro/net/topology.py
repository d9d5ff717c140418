"""Physical-topology service: one uniform-grid connectivity backend.

The physical substrate answers three questions for every layer above
it: "who is in range of ``i``?", "is there a link ``i``--``j``?" and
"how many ad-hoc hops from ``a`` to ``b`` (or to everyone)?", with
:data:`UNREACHABLE` for a disconnected pair.  Callers ask
``world.topology``, read at call time.  :class:`TopologyBackend`
answers all of them at every node count, from the paper's n = 50..150
to the thousands of nodes large-MANET work (CARD, unstructured-overlay
studies) cares about.

One CSR adjacency per snapshot, built by whichever read first needs it,
answers ``neighbors`` (a row slice), ``degrees`` and BFS
(frontier-at-a-time over the CSR arrays); per-source BFS states are
memoized under an LRU bound and expanded level by level only as far as
a query needs (``hop_distance`` stops once its target is labelled).
The CSR is the exact ``d2 <= r²`` test run over *candidate pairs*:
every pair of up nodes within ``r + s`` (the skin ``s`` is
:data:`_SKIN` of the radio range) of where the nodes were at the last
*sweep*, a uniform-grid pass with cell side ``r + s`` that pairs each
node with the runs of its 3x3 cell block.  The candidates are kept
across snapshots until an up node has moved ``s/2`` from its sweep
position or the down mask changed: two nodes in range now were then
less than ``r + s`` apart at the sweep, so the CSR is the one a fresh
sweep would give, bit for bit.  At the paper's speeds (<= 1 m/s, one
snapshot per 0.25 s) a sweep serves about five snapshots.  O(n·k) time
and memory per snapshot at bounded density k -- the regime where n
grows but the node density (and hence the mean degree) stays fixed.
The test suite holds it to an O(n²) dense-matrix oracle and to a
from-scratch rebuild (``tests/test_net_topology.py``): neighbor sets,
CSR arrays and hop distances must agree exactly.

A stale snapshot follows one refresh rule: it is *kept* -- CSR, ``link``
lists and distance cache included -- when neither the positions nor the
down mask changed, and otherwise *rebuilt*: everything it derived is
dropped and built again on demand (only the candidate pairs outlive it,
under the rule above).  Everything a snapshot derives is a pure
function of those two inputs, so a rebuild from equal inputs would
produce equal arrays.

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
#: (cy + _KOFF), so the cells of one grid column are consecutive keys
#: and the next column's are ``_KSTRIDE`` up.  Collision-free while every
#: cell coordinate stays within ±(_KOFF - 2) -- at the 12.5 m cells of a
#: 10 m radio range that is a deployment area of ~13,000 km per axis.
_KOFF = 1 << 20
_KSTRIDE = 1 << 21
#: The candidate skin ``s`` as a fraction of the radio range ``r``: a
#: sweep keeps every pair of up nodes within ``r + s`` of each other.
_SKIN = 0.25
#: A sweep's candidates are kept while every up node is less than
#: ``s/2 * (1 - _MARGIN)`` from where it was at the sweep; the margin
#: dwarfs the rounding of the distance tests and of the cell keys.
_MARGIN = 1e-6
#: up nodes paired per step of a sweep, which bounds its temporaries
_SWEEP_BLOCK = 2048


class TopologyBackend:
    """Uniform-grid spatial index + one CSR adjacency per snapshot.

    A backend owns the connectivity state derived from one *snapshot* of
    node positions.  Queries transparently refresh the snapshot when it
    is stale; staleness follows the owning world's
    ``snapshot_interval`` (0 means exact per-timestamp snapshots) and a
    backwards-moving clock always makes it stale.

    The CSR adjacency (``indptr`` / ``indices``) is built once per
    snapshot by the first read that needs it -- ``neighbors``,
    ``degrees``, BFS or ``csr`` -- for all up nodes at once
    (:meth:`_build_csr`) by filtering the candidate pairs
    (:meth:`_pairs`); ``neighbors(i)`` is then row ``i``.  A sweep
    (:meth:`_sweep`) partitions the area into square cells of side
    ``r + s``, so finding a node's candidates touches O(k) nodes (k =
    nodes per 9-cell block) regardless of n; it runs on the first CSR
    build, after :meth:`invalidate`, and when the candidates may miss a
    pair.  ``link`` needs no CSR: it tests the pair's distance on
    per-snapshot float lists.  Administratively-down nodes are excluded
    from the grid entirely: they neither appear as neighbors nor relay.

    A stale refresh whose positions and down mask both equal the
    snapshot's keeps the snapshot, and with it the CSR, the ``link``
    lists and the memoized per-source BFS states, complete or expanded
    part way (an LRU-bounded cache of ``dist_cache_size``); any other refresh
    rebuilds all of it (:meth:`_update`).

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
        #: the last sweep's candidate pairs (:meth:`_sweep`) as ascending
        #: ``(src, dst)`` int32 columns, or None when the next CSR build
        #: must sweep
        self._cand: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: the positions the candidates were swept at, the down mask's
        #: bytes then and its complement
        self._anchor: np.ndarray = self._pos
        self._anchor_down = b""
        self._anchor_up: np.ndarray = ~self._down
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
        skin = _SKIN * r
        #: a sweep's reach ``r + s``, also its grid's cell side
        self._reach = r + skin
        #: squared displacement from the anchor that calls for a sweep
        self._hold2 = (0.5 * skin * (1.0 - _MARGIN)) ** 2
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
        self._cand = None

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
        """Make ``pos`` (n,2) and ``down`` the snapshot; what it derives
        is built on demand."""
        self._pos = pos.copy()
        self._down = down.copy()
        self._csr = None
        self._xy = None

    def _pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every in-range pair of up nodes as ``(src, dst)`` columns,
        ascending by ``src`` then ``dst``.

        The last sweep's candidates, filtered by the same ``d2 <= r²``
        test as :meth:`link` on the snapshot's positions; a boolean
        filter keeps their order.  The candidates are swept again first
        when they may miss a pair: none yet (first snapshot, or after
        :meth:`invalidate`), a down mask other than the sweep's, or an
        up node ``s/2`` or more from where the sweep saw it.  Otherwise
        two up nodes in range now were less than ``r + s`` apart at the
        sweep (triangle inequality), so every pair in range is a
        candidate.
        """
        if self._cand is None or self._candidates_stale():
            self._sweep()
        src, dst = self._cand
        # dx * dx + dy * dy, in place so that fewer temporaries are live
        d = self._pos.take(src, axis=0)
        d -= self._pos.take(dst, axis=0)
        d *= d
        keep = d[:, 0] + d[:, 1] <= self._r2
        return src.compress(keep), dst.compress(keep)

    def _candidates_stale(self) -> bool:
        """Whether the down mask changed or an up node moved ``s/2``
        (less the float margin) or more since the last sweep."""
        if self._down.tobytes() != self._anchor_down:
            return True
        step = self._pos - self._anchor
        step *= step
        moved = step[:, 0] + step[:, 1] >= self._hold2
        return bool((moved & self._anchor_up).any())

    def _sweep(self) -> None:
        """Make every pair of up nodes within ``r + s`` the candidates
        (:func:`_pairs_within`), anchored at the snapshot's positions and
        down mask."""
        n = self.world.n
        packed = _pairs_within(self._pos, self._down, self._reach)
        src = (packed // n).astype(np.int32)
        np.remainder(packed, n, out=packed)
        self._cand = (src, packed.astype(np.int32))
        self._anchor = self._pos
        self._anchor_down = self._down.tobytes()
        self._anchor_up = ~self._down

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
        src, dst = self._pairs()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        indices = dst.astype(np.int64)
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} n={self.world.n} t={self._snap_time:.3f}>"


def _pairs_within(pos: np.ndarray, down: np.ndarray, reach: float) -> np.ndarray:
    """Every ordered pair ``(src, dst)`` of up nodes with ``d2 <= reach²``,
    packed as ``src * n + dst`` and ascending.

    A uniform grid of cell side ``reach``: a pair within reach lies in
    one 3x3 block of cells.  With the up
    nodes sorted by cell key, each node is paired with a half shell only,
    two runs of that order: the rest of its own cell plus the cell above,
    and the three cells of the next column (``searchsorted`` finds the
    runs, ``_gather`` expands them).  A pair kept stands for both of its
    directions.  Nodes are paired :data:`_SWEEP_BLOCK` at a time, which
    bounds the temporaries.
    """
    n = len(pos)
    reach2 = reach * reach
    cell = pos / reach
    np.floor(cell, out=cell)
    cell = cell.astype(np.int64)
    cell += _KOFF
    if cell.size and (cell.min() < 1 or cell.max() >= _KSTRIDE - 1):
        raise ValueError(
            "node positions exceed the grid's coordinate range "
            f"(±{(_KOFF - 2) * reach:.0f} m at cell side {reach})"
        )
    key = cell[:, 0] * _KSTRIDE + cell[:, 1]
    up = (~down).nonzero()[0]
    members = up[key[up].argsort()]
    sorted_keys = key[members]
    x, y = pos[members].T
    kept = []
    for start in range(0, len(members), _SWEEP_BLOCK):
        rank = np.arange(start, min(start + _SWEEP_BLOCK, len(members)))
        needles = sorted_keys[rank]
        # ascending needles search faster
        lo = np.concatenate(
            (rank + 1, sorted_keys.searchsorted(needles + (_KSTRIDE - 1), "left"))
        )
        counts = np.concatenate(
            (
                sorted_keys.searchsorted(needles + 1, "right"),
                sorted_keys.searchsorted(needles + (_KSTRIDE + 1), "right"),
            )
        )
        counts -= lo
        a = np.concatenate((rank, rank)).repeat(counts)
        b = _gather(lo, counts)
        dx, dy = x[a] - x[b], y[a] - y[b]
        keep = dx * dx + dy * dy <= reach2
        a, b = members[a[keep]], members[b[keep]]
        kept += (a * n + b, b * n + a)
    packed = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    packed.sort()
    return packed


def _gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index runs ``starts[k] .. starts[k] + counts[k]``, concatenated."""
    run_base = (starts - counts.cumsum() + counts).repeat(counts)
    run_base += np.arange(run_base.size, dtype=np.int64)
    return run_base
