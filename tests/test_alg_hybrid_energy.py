"""Hybrid under a finite battery.  The qualifier is a static per-node
value (§6.2: it "can be related to any characteristic of the node, e.g.
energy level", and ``OverlayNetwork(qualifiers=...)`` sets it); what a
battery adds is that a drained node goes down and leaves the topology."""

import numpy as np

from repro.core import PeerState
from repro.mobility import Area, Static
from repro.net import Channel, EnergyModel, World
from repro.aodv import AodvRouter
from repro.core import OverlayNetwork
from repro.metrics import MetricsCollector
from repro.sim import RngRegistry, Simulator

#: node 0 outranks node 1, which outranks node 2
QUALIFIERS = {0: 0.9, 1: 0.5, 2: 0.3}


def build_energy_overlay(positions, capacity=1.0):
    pts = np.asarray(positions, dtype=float)
    n = len(pts)
    sim = Simulator()
    rng = RngRegistry(3)
    mobility = Static(n, Area(1000, 1000), rng.stream("mobility"), positions=pts)
    world = World(
        sim, mobility, radio_range=10.0, energy=EnergyModel(n, capacity=capacity)
    )
    channel = Channel(sim, world)
    router = AodvRouter(sim, channel)
    metrics = MetricsCollector(n)
    overlay = OverlayNetwork(
        sim,
        world,
        channel,
        router,
        members=list(range(n)),
        algorithm="hybrid",
        rng=rng,
        count_received=metrics.count_received,
        qualifiers={i: QUALIFIERS[i] for i in range(n)},
    )
    return sim, world, overlay


class TestEnergyQualifier:
    def test_static_fallback_when_infinite_capacity(self):
        sim, world, overlay = build_energy_overlay(
            [[10, 10], [15, 10]], capacity=float("inf")
        )
        alg0 = overlay.servents[0].algorithm
        world.energy.charge_tx(0, 50_000)
        assert alg0.qualifier == 0.9  # spending energy leaves the rank alone

    def test_setter_updates_static_value(self):
        sim, world, overlay = build_energy_overlay([[10, 10], [15, 10]])
        alg0 = overlay.servents[0].algorithm
        alg0.qualifier = 0.123
        assert alg0.qualifier == 0.123

    def test_drained_master_can_be_displaced(self):
        # Node 0 has the highest qualifier and masters 1 and 2.  Then its
        # battery runs dry: it goes down, its slaves lose their master
        # and re-elect node 1, the strongest node still up.
        sim, world, overlay = build_energy_overlay(
            [[10, 10], [15, 10], [10, 15]], capacity=1.0
        )
        overlay.start(queries=False)
        sim.run(until=200.0)
        states = {nid: s.algorithm.state for nid, s in overlay.servents.items()}
        assert states == {0: PeerState.MASTER, 1: PeerState.SLAVE, 2: PeerState.SLAVE}
        world.energy.charge_tx(0, 10**9)
        assert not world.is_up(0)
        sim.run(until=900.0)
        alg1, alg2 = overlay.servents[1].algorithm, overlay.servents[2].algorithm
        assert alg1.state is PeerState.MASTER
        assert alg2.state is PeerState.SLAVE and alg2.master == 1
