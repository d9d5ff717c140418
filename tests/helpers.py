"""Shared test fixtures: hand-placed static topologies, the reference oracles."""

import types
from unittest import mock

import numpy as np

from repro.mobility import Area, Static
from repro.net import Channel, DenseTopology, EnergyModel, SparseGridTopology, World
from repro.net import world as world_module
from repro.net.topology import UNREACHABLE, TopologyBackend, _KSTRIDE
from repro.sim import Simulator

#: the two topology backends, by the name their test ids carry
BACKENDS = {cls.name: cls for cls in (DenseTopology, SparseGridTopology)}


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


def pin_backend(name):
    """Context manager: every ``World`` built inside runs backend ``name``
    ("dense" / "sparse") whatever its node count."""
    return mock.patch.object(world_module, "make_topology", BACKENDS[name])


def pin_full_rebuild(world):
    """Make ``world``'s topology backend rebuild from scratch on every refresh.

    Binds the base-class ``TopologyBackend._update`` fallback onto the
    backend instance, so each refresh recomputes connectivity, advances
    the adjacency epoch and flushes every memo -- the reference the
    delta refresh must match bit for bit.  Returns ``world``.
    """
    backend = world.topology
    backend._update = types.MethodType(TopologyBackend._update, backend)
    return world


def pin_per_copy_delivery(channel):
    """Make ``channel`` (CSMA / lossy included) schedule one event per
    receiver, in ascending-nid order -- the reference batched delivery
    must match bit for bit.  Returns ``channel``."""

    def per_copy(delay, receivers, batch_fn, copy_fn, *args):
        for dst in map(int, receivers):
            channel.sim.schedule(delay, copy_fn, dst, *args)

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
    """CSR of a sparse grid's current snapshot, one occupied cell at a time.

    The per-cell build the vectorized ``SparseGridTopology._build_csr``
    replaced: a cell -> members dict of the up nodes, each cell's
    members against the members of its 3x3 block, the same
    ``d2 <= r²`` test, each row sorted.
    """
    n = topo.world.n
    grid = {}
    for i in np.flatnonzero(~topo._down).tolist():
        grid.setdefault(int(topo._key[i]), []).append(i)
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
    time per frontier node (the sparse grid's former BFS)."""
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
