"""Tests for DSDV proactive routing."""

import numpy as np
import pytest

from repro.dsdv import INFINITE_METRIC, DsdvConfig, DsdvRouter
from repro.mobility import Area, Static
from repro.net import Channel, World
from repro.sim import Simulator

from .helpers import line_positions


def make_dsdv(positions, radio_range=10.0, config=None):
    pts = np.asarray(positions, dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000, 1000), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=radio_range)
    channel = Channel(sim, world)
    router = DsdvRouter(sim, channel, config=config)
    inbox = []
    router.register("app", lambda dst, src, p, h: inbox.append((dst, src, p, h)))
    return sim, world, channel, router, inbox


class TestConvergence:
    def test_tables_converge_on_line(self):
        sim, _, _, router, _ = make_dsdv(line_positions(5, spacing=8.0))
        sim.run(until=60.0)  # several periodic rounds
        assert router.route_hops(0, 4) == 4
        assert router.route_hops(4, 0) == 4
        assert router.route_hops(2, 3) == 1

    def test_multihop_delivery(self):
        sim, _, _, router, inbox = make_dsdv(line_positions(5, spacing=8.0))
        sim.run(until=60.0)
        router.send(0, 4, "hello", kind="app")
        sim.run(until=62.0)
        assert inbox == [(4, 0, "hello", 4)]

    def test_loopback(self):
        sim, _, _, router, inbox = make_dsdv(line_positions(2))
        router.send(1, 1, "me", kind="app")
        sim.run(until=1.0)
        assert inbox == [(1, 1, "me", 0)]

    def test_no_route_before_convergence_fails(self):
        sim, _, _, router, inbox = make_dsdv(line_positions(4, spacing=8.0))
        failed = []
        router.send(0, 3, "early", kind="app", on_fail=failed.append)
        sim.run(until=0.5)
        assert failed == ["early"]  # proactive: nothing to wait for

    def test_unreachable_fails(self):
        sim, _, _, router, _ = make_dsdv([[0, 0], [8, 0], [500, 500]])
        sim.run(until=60.0)
        failed = []
        router.send(0, 2, "x", kind="app", on_fail=failed.append)
        sim.run(until=65.0)
        assert failed == ["x"]


class TestFreshness:
    def test_newer_seq_wins_even_with_worse_metric(self):
        sim, _, _, router, _ = make_dsdv(line_positions(3, spacing=8.0))
        sim.run(until=60.0)
        agent = router.agents[0]
        entry = agent.table[2]
        old_metric = entry.metric
        # Inject a stale better-metric rumour: must be rejected.
        from repro.dsdv.protocol import DsdvUpdate
        from repro.net import Frame

        stale = DsdvUpdate(sender=1, rows=[(2, 0, entry.seq - 2)])
        agent._on_update(Frame(src=1, dst=0, kind="dsdv.update", payload=stale))
        assert agent.table[2].metric == old_metric

    def test_equal_seq_better_metric_wins(self):
        sim, _, _, router, _ = make_dsdv(line_positions(3, spacing=8.0))
        sim.run(until=60.0)
        agent = router.agents[0]
        entry = agent.table[2]
        from repro.dsdv.protocol import DsdvUpdate
        from repro.net import Frame

        better = DsdvUpdate(sender=1, rows=[(2, entry.metric - 2, entry.seq)])
        agent._on_update(Frame(src=1, dst=0, kind="dsdv.update", payload=better))
        assert agent.table[2].metric == entry.metric - 1


class TestRepair:
    def test_broken_link_invalidates_and_reconverges(self):
        # line 0-1-2 plus a detour 0-3-2
        pts = [[0, 0], [8, 0], [16, 0], [8, 6]]
        sim, world, _, router, inbox = make_dsdv(pts)
        sim.run(until=60.0)
        router.send(0, 2, "first", kind="app")
        sim.run(until=62.0)
        assert any(p == "first" for _, _, p, _ in inbox)
        world.set_down(1)
        sim.run(until=150.0)  # periodic updates re-converge via node 3
        router.send(0, 2, "second", kind="app")
        sim.run(until=160.0)
        assert any(p == "second" for _, _, p, _ in inbox)

    def test_stale_routes_expire(self):
        cfg = DsdvConfig(periodic_update=5.0, stale_periods=2.0)
        sim, world, _, router, _ = make_dsdv(line_positions(3, spacing=8.0), config=cfg)
        sim.run(until=30.0)
        assert router.route_hops(0, 2) == 2
        world.set_down(2)
        sim.run(until=90.0)
        assert router.route_hops(0, 2) == DsdvRouter.UNKNOWN

    def test_control_overhead_counted(self):
        sim, _, _, router, _ = make_dsdv(line_positions(3, spacing=8.0))
        sim.run(until=60.0)
        updates = router.registry.value("routing.updates_sent", protocol="dsdv")
        assert updates >= 3 * 3  # >= n dumps per period

    def test_periodic_updates_jittered(self):
        # agents must not all dump at the same instant
        sim, _, channel, router, _ = make_dsdv(line_positions(4, spacing=8.0))
        times = []
        orig = channel.broadcast

        def spy(frame):
            if frame.kind == "dsdv.update":
                times.append(round(sim.now, 6))
            return orig(frame)

        channel.broadcast = spy
        sim.run(until=16.0)
        assert len(set(times)) > 1
