"""Shared test fixtures: hand-placed static topologies, the reference oracles."""

import types

import networkx as nx
import numpy as np

from repro.mobility import Area, Static
from repro.net import Channel, EnergyModel, World
from repro.net.topology import UNREACHABLE, TopologyBackend, _KSTRIDE
from repro.sim import Simulator


def make_world(positions, radio_range=10.0, capacity=float("inf"), area=None):
    """Build (sim, world, channel) over a static hand-placed topology."""
    pts = np.asarray(positions, dtype=float)
    n = len(pts)
    area = area or Area(1000.0, 1000.0)
    mobility = Static(n, area, np.random.default_rng(0), positions=pts)
    sim = Simulator()
    world = World(
        sim,
        mobility,
        radio_range=radio_range,
        energy=EnergyModel(n, capacity=capacity),
    )
    channel = Channel(sim, world)
    return sim, world, channel


def line_positions(n, spacing=8.0):
    """n nodes on a horizontal line, `spacing` metres apart."""
    return [[i * spacing, 0.0] for i in range(n)]


def _full_rebuild(topology, pos, down):
    """A refresh that recomputes connectivity from scratch and reports
    that it rebuilt: the grid's candidate pairs are dropped too, so its
    next CSR build sweeps."""
    topology._cand = None
    topology._rebuild(pos, down)
    return True


def pin_full_rebuild(world):
    """Make ``world``'s topology backend rebuild from scratch on every refresh.

    Binds :func:`_full_rebuild` over the backend's keep-or-rebuild
    ``_update``, so each refresh recomputes connectivity and flushes
    every memo and the candidate pairs, even when nothing changed --
    the reference the refresh rule and the candidate reuse must match
    bit for bit.  Returns ``world``.
    """
    world.topology._update = types.MethodType(_full_rebuild, world.topology)
    return world


class DenseOracle(TopologyBackend):
    """The O(n²) reference connectivity the grid must equal exactly.

    One pairwise-distance pass per refresh into a boolean (n, n) matrix
    (every refresh is a full rebuild), neighbour rows and degrees read
    off the matrix, each BFS level from the frontier's matrix rows.
    Snapshot lifecycle, the resumable BFS states, the distance cache and
    counters are the grid's.  Install it with
    ``world.topology = DenseOracle(world)``.
    """

    _update = _full_rebuild

    def _rebuild(self, pos, down):
        diff = pos[:, None, :] - pos[None, :, :]
        adj = np.einsum("ijk,ijk->ij", diff, diff) <= self.world.radio_range**2
        np.fill_diagonal(adj, False)
        adj[down, :] = False
        adj[:, down] = False
        adj.flags.writeable = False
        self._adj = adj
        self._down = down.copy()

    def neighbors(self, i):
        self.refresh()
        return np.flatnonzero(self._adj[i])

    def link(self, i, j):
        self.refresh()
        return bool(self._adj[i, j])

    def degrees(self):
        self.refresh()
        return self._adj.sum(axis=1)

    def adjacency_matrix(self):
        self.refresh()
        return self._adj

    def csr(self):
        self.refresh()
        adj = self._adj
        n = adj.shape[0]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(adj.sum(axis=1), out=indptr[1:])
        # row-major flatnonzero yields each row's columns ascending
        indices = (np.flatnonzero(adj) % n).astype(np.int64)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return indptr, indices

    def _level(self, dist, frontier):
        # the oracle's own level step: OR of the frontier's matrix rows
        return np.flatnonzero(self._adj[frontier].any(axis=0) & (dist == UNREACHABLE))


def pin_oracle(world, oracle):
    """Make ``world`` answer from an oracle: the dense matrix
    (``"dense"``) or the grid rebuilt from scratch on every refresh
    (``"sparse"``).  Returns ``world``."""
    if oracle == "dense":
        world.topology = DenseOracle(world)
        return world
    return pin_full_rebuild(world)


def pin_per_copy_delivery(channel):
    """Make ``channel`` (CSMA / lossy included) schedule one event per
    receiver, in ascending-nid order -- the reference batched delivery
    must match bit for bit.  Returns ``channel``."""

    def per_copy(delay, receivers, fn, *args):
        for dst in receivers:
            channel.sim.schedule(delay, fn, [dst], *args)

    channel._schedule_copies = per_copy
    return channel


def pin_never_forget(flood):
    """Make ``flood``'s dedup table remember every flood id for the whole run.

    Sets the plane's :class:`~repro.net.broadcast.SeenTable` lifetime to
    infinity -- the never-evicting per-node caches the expiring table
    must match bit for bit.  Returns ``flood``.
    """
    flood.seen.lifetime = float("inf")
    return flood


def reference_sparse_csr(topo):
    """CSR of the grid's current snapshot, one occupied cell at a time.

    The per-cell build the vectorized ``TopologyBackend._build_csr``
    replaced, from the snapshot's positions alone (no candidate pairs):
    a cell -> members dict of the up nodes on a grid of cell side ``r``,
    each cell's members against the members of its 3x3 block, the same
    ``d2 <= r²`` test, each row sorted.
    """
    n = topo.world.n
    cell = np.floor(topo._pos / topo.world.radio_range).astype(np.int64)
    keys = cell[:, 0] * _KSTRIDE + cell[:, 1]
    grid = {}
    for i in np.flatnonzero(~topo._down).tolist():
        grid.setdefault(int(keys[i]), []).append(i)
    rows = [np.empty(0, dtype=np.int64)] * n
    for key, members in grid.items():
        block = [key + dx * _KSTRIDE + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        cand = np.array([j for k in block for j in grid.get(k, ())], dtype=np.int64)
        diff = topo._pos[members][:, None, :] - topo._pos[cand][None, :, :]
        in_range = np.einsum("ijk,ijk->ij", diff, diff) <= topo._r2
        for row, i in enumerate(members):
            hits = cand[in_range[row]]
            rows[i] = np.sort(hits[hits != i])
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
    return indptr, np.concatenate(rows + [np.empty(0, dtype=np.int64)])


def reference_bfs(indptr, indices, src, down):
    """Hop distances from ``src`` over a CSR, one Python-gathered row at a
    time per frontier node (the grid's former BFS)."""
    dist = np.full(len(indptr) - 1, UNREACHABLE, dtype=np.int32)
    if down[src]:
        return dist
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        chunks = [indices[indptr[v] : indptr[v + 1]] for v in frontier]
        cand = np.unique(np.concatenate(chunks))
        nxt = cand[dist[cand] == UNREACHABLE]
        if not nxt.size:
            break
        dist[nxt] = d
        frontier = nxt
    return dist


def graph_csr(g):
    """CSR adjacency of a networkx graph: ``(indptr, indices, nodes)``.

    The bridge from the networkx oracles to the CSR kernels: ``nodes``
    is ``list(g.nodes)``, row ``i`` belongs to ``nodes[i]`` and holds its
    neighbours' indices ascending.  Only the graph's structure is read.
    """
    nodes = list(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    rows = [sorted(index[w] for w in g.adj[v]) for v in nodes]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
    indices = np.array([j for r in rows for j in r], dtype=np.int64)
    return indptr, indices, nodes


def csr_graph(indptr, indices):
    """The networkx graph of a CSR adjacency (nodes ``0 .. n-1``)."""
    g = nx.Graph()
    g.add_nodes_from(range(len(indptr) - 1))
    for u in range(len(indptr) - 1):
        g.add_edges_from((u, int(v)) for v in indices[indptr[u] : indptr[u + 1]])
    return g
