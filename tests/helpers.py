"""Shared test fixtures: hand-placed static topologies, the topology oracle."""

import types

import numpy as np

from repro.mobility import Area, Static
from repro.net import Channel, EnergyModel, World
from repro.net.topology import TopologyBackend
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
