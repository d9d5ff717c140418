"""Shared test fixtures: hand-placed static topologies, the reference oracles."""

import types
from unittest import mock

import numpy as np

from repro.mobility import Area, Static
from repro.net import Channel, DenseTopology, EnergyModel, SparseGridTopology, World
from repro.net import world as world_module
from repro.net.topology import TopologyBackend
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
        for dst in receivers.tolist():
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
