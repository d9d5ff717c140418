"""Tests for the oracle shortest-path router."""

import numpy as np

from repro.mobility import Area, Static
from repro.net import Channel, World
from repro.routing import OracleRouter, Router
from repro.sim import Simulator

from .helpers import line_positions


def make_oracle(positions, radio_range=10.0):
    pts = np.asarray(positions, dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000, 1000), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=radio_range)
    router = OracleRouter(sim, world)
    inbox = []
    router.register("app", lambda dst, src, p, h: inbox.append((dst, src, p, h)))
    return sim, world, router, inbox


class TestOracle:
    def test_delivers_with_bfs_hops(self):
        sim, _, router, inbox = make_oracle(line_positions(5, spacing=8.0))
        router.send(0, 4, "x", kind="app")
        sim.run()
        assert inbox == [(4, 0, "x", 4)]

    def test_latency_proportional_to_hops(self):
        sim, _, router, _ = make_oracle(line_positions(4, spacing=8.0))
        times = {}
        router.register("t", lambda dst, src, p, h: times.__setitem__(p, sim.now))
        router.send(0, 1, "one", kind="t")
        router.send(0, 3, "three", kind="t")
        sim.run()
        assert times["three"] == 3 * times["one"]

    def test_no_path_fails_immediately(self):
        sim, _, router, inbox = make_oracle([[0, 0], [500, 500]])
        failed = []
        router.send(0, 1, "x", kind="app", on_fail=failed.append)
        sim.run()
        assert failed == ["x"] and inbox == []
        assert sim.registry.value("routing.send_failures", protocol="oracle") == 1

    def test_down_endpoint_fails(self):
        sim, world, router, _ = make_oracle(line_positions(2, spacing=5.0))
        failed = []
        world.set_down(1)
        router.send(0, 1, "x", kind="app", on_fail=failed.append)
        sim.run()
        assert failed == ["x"]

    def test_loopback(self):
        sim, _, router, inbox = make_oracle(line_positions(2))
        router.send(1, 1, "me", kind="app")
        sim.run()
        assert inbox == [(1, 1, "me", 0)]

    def test_route_hops(self):
        _, _, router, _ = make_oracle(line_positions(4, spacing=8.0))
        assert router.route_hops(0, 3) == 3
        assert router.route_hops(0, 0) == 0

    def test_route_hops_unknown_when_disconnected(self):
        _, _, router, _ = make_oracle([[0, 0], [500, 500]])
        assert router.route_hops(0, 1) == Router.UNKNOWN

    def test_endpoints_pay_energy(self):
        sim, world, router, _ = make_oracle(line_positions(3, spacing=8.0))
        router.send(0, 2, "x", kind="app")
        sim.run()
        assert world.energy.consumed[0] > 0
        assert world.energy.consumed[2] > 0
