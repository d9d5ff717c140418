"""Tests for AODV HELLO link sensing (optional feature)."""

import numpy as np

from repro.aodv import AodvConfig, AodvRouter
from repro.mobility import Area, Static
from repro.net import Channel, World
from repro.sim import Simulator

from .helpers import line_positions


def make(positions, hello_interval=1.0):
    pts = np.asarray(positions, dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000, 1000), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=10.0)
    channel = Channel(sim, world)
    cfg = AodvConfig(hello_interval=hello_interval)
    router = AodvRouter(sim, channel, config=cfg)
    inbox = []
    router.register("app", lambda dst, src, p, h: inbox.append((dst, src, p, h)))
    return sim, world, router, inbox


class TestHello:
    def test_hellos_sent_when_enabled(self):
        sim, _, router, _ = make(line_positions(3, spacing=8.0))
        sim.run(until=10.0)
        # every node beacons about once a second from its offset on
        assert sim.registry.value("routing.hello_sent", protocol="aodv") >= 8 * len(router.agents)

    def test_disabled_by_default(self):
        pts = np.asarray(line_positions(2), dtype=float)
        sim = Simulator()
        mobility = Static(2, Area(1000, 1000), np.random.default_rng(0), positions=pts)
        world = World(sim, mobility)
        channel = Channel(sim, world)
        router = AodvRouter(sim, channel)
        sim.run(until=10.0)
        assert sim.registry.value("routing.hello_sent", protocol="aodv") == 0

    def test_silent_neighbor_invalidates_routes(self):
        sim, world, router, inbox = make(line_positions(3, spacing=8.0))
        router.send(0, 2, "x", kind="app")
        sim.run(until=3.0)
        assert (2, 0, "x", 2) in inbox
        assert router.route_hops(0, 2) == 2
        # Node 1 (the relay) dies; HELLO silence tears the route down
        # WITHOUT any data transmission attempt.
        world.set_down(1)
        sim.run(until=15.0)
        assert router.route_hops(0, 2) == AodvRouter.UNKNOWN

    def test_delivery_still_works_with_hellos(self):
        sim, _, router, inbox = make(line_positions(4, spacing=8.0))
        router.send(0, 3, "y", kind="app")
        sim.run(until=5.0)
        assert (3, 0, "y", 3) in inbox

    def test_hello_traffic_counts_in_energy(self):
        sim, world, router, _ = make(line_positions(2, spacing=5.0))
        sim.run(until=20.0)
        assert world.energy.consumed[0] > 0
        assert world.energy.consumed[1] > 0
