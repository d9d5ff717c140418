"""Tests for DSR source routing."""

import numpy as np
import pytest

from repro.dsr import DsrConfig, DsrRouter, RouteCache
from repro.mobility import Area, Static
from repro.net import Channel, World
from repro.sim import Simulator

from .helpers import line_positions, seen_by


def make_dsr(positions, radio_range=10.0, config=None):
    pts = np.asarray(positions, dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000, 1000), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=radio_range)
    channel = Channel(sim, world)
    router = DsrRouter(sim, channel, config=config)
    inbox = []
    router.register("app", lambda dst, src, p, h: inbox.append((dst, src, p, h)))
    return sim, world, channel, router, inbox


def rreq_sent(router):
    return router.registry.value("routing.rreq_sent", protocol="dsr")


class TestRouteCache:
    def test_offer_and_get(self):
        c = RouteCache(0)
        c.offer([0, 1, 2, 3])
        assert c.get(3) == [0, 1, 2, 3]
        assert c.get(2) == [0, 1, 2]  # prefixes learned too
        assert c.get(1) == [0, 1]

    def test_shorter_route_replaces(self):
        c = RouteCache(0)
        c.offer([0, 1, 2, 3])
        c.offer([0, 4, 3])
        assert c.get(3) == [0, 4, 3]

    def test_foreign_route_ignored(self):
        c = RouteCache(0)
        c.offer([5, 6, 7])
        assert len(c) == 0

    def test_purge_link_both_orders(self):
        c = RouteCache(0)
        c.offer([0, 1, 2, 3])
        c.purge_link(2, 1)
        assert c.get(3) is None
        assert c.get(1) == [0, 1]  # unaffected prefix survives

    def test_returns_copy(self):
        c = RouteCache(0)
        c.offer([0, 1])
        r = c.get(1)
        r.append(99)
        assert c.get(1) == [0, 1]


class TestDiscoveryAndDelivery:
    def test_multihop_delivery(self):
        sim, _, _, router, inbox = make_dsr(line_positions(5, spacing=8.0))
        router.send(0, 4, "hello", kind="app")
        sim.run(until=5.0)
        assert inbox == [(4, 0, "hello", 4)]

    def test_loopback(self):
        sim, _, _, router, inbox = make_dsr(line_positions(2))
        router.send(0, 0, "me", kind="app")
        sim.run(until=1.0)
        assert inbox == [(0, 0, "me", 0)]

    def test_route_cached_after_discovery(self):
        sim, _, _, router, inbox = make_dsr(line_positions(4, spacing=8.0))
        router.send(0, 3, "a", kind="app")
        sim.run(until=3.0)
        rreqs = rreq_sent(router)
        router.send(0, 3, "b", kind="app")
        sim.run(until=4.0)
        assert [p for _, _, p, _ in inbox] == ["a", "b"]
        assert rreq_sent(router) == rreqs

    def test_reverse_route_learned_for_free(self):
        sim, _, _, router, inbox = make_dsr(line_positions(4, spacing=8.0))
        router.send(0, 3, "fwd", kind="app")
        sim.run(until=3.0)
        # The destination learned the reverse route from the data packet.
        assert router.route_hops(3, 0) == 3

    def test_unreachable_calls_on_fail(self):
        sim, _, _, router, inbox = make_dsr([[0, 0], [8, 0], [500, 500]])
        failed = []
        router.send(0, 2, "nope", kind="app", on_fail=failed.append)
        sim.run(until=30.0)
        assert failed == ["nope"] and inbox == []

    def test_route_hops(self):
        sim, _, _, router, _ = make_dsr(line_positions(4, spacing=8.0))
        assert router.route_hops(0, 3) == DsrRouter.UNKNOWN
        router.send(0, 3, "x", kind="app")
        sim.run(until=3.0)
        assert router.route_hops(0, 3) == 3
        assert router.route_hops(1, 1) == 0

    def test_cache_reply_from_intermediate(self):
        sim, _, _, router, inbox = make_dsr(line_positions(5, spacing=8.0))
        router.send(2, 4, "prime", kind="app")
        sim.run(until=3.0)
        rreqs = rreq_sent(router)
        router.send(0, 4, "main", kind="app")
        sim.run(until=6.0)
        assert (4, 0, "main", 4) in inbox
        # node 0 originated one RREQ; node 2 answered from its cache
        assert rreq_sent(router) == rreqs + 1


class TestRepair:
    def test_broken_route_rediscovered(self):
        pts = [[0, 0], [8, 0], [16, 0], [8, 6]]  # detour via 3
        sim, world, _, router, inbox = make_dsr(pts)
        router.send(0, 2, "first", kind="app")
        sim.run(until=3.0)
        assert any(p == "first" for _, _, p, _ in inbox)
        world.set_down(1)
        router.send(0, 2, "second", kind="app")
        sim.run(until=20.0)
        assert any(p == "second" for _, _, p, _ in inbox)

    def test_rerr_purges_upstream_caches(self):
        sim, world, _, router, _ = make_dsr(line_positions(4, spacing=8.0))
        router.send(0, 3, "x", kind="app")
        sim.run(until=3.0)
        assert router.route_hops(0, 3) == 3
        world.set_down(2)
        router.send(0, 3, "y", kind="app")
        sim.run(until=30.0)
        # Route through node 2 must be gone from node 0's cache (either
        # replaced after failed rediscovery attempts, or purged).
        route = router.agents[0].cache.get(3)
        assert route is None or 2 not in route

    def test_queue_overflow_fails(self):
        cfg = DsrConfig(queue_per_dest=2)
        sim, _, _, router, _ = make_dsr([[0, 0], [8, 0], [500, 500]], config=cfg)
        failed = []
        for i in range(5):
            router.send(0, 2, f"m{i}", kind="app", on_fail=failed.append)
        sim.run(until=60.0)
        assert sorted(failed) == [f"m{i}" for i in range(5)]


class TestRreqDedup:
    def test_table_holds_only_live_keys(self):
        # Node 2 is unreachable, so every send is a full failed discovery
        # (first try + 2 retries, 2 s apart).  After 20 of them the
        # router's dedup table holds the last discovery's keys only.
        sim, _, _, router, _ = make_dsr([[0, 0], [8, 0], [500, 500]])
        failed = []
        for k in range(20):
            sim.schedule(
                10.0 * k,
                lambda k=k: router.send(0, 2, k, kind="app", on_fail=failed.append),
            )
        sim.run(until=200.0)
        assert failed == list(range(20))
        assert router.agents[0].rreq_id == 60
        seen = router._seen
        assert seen.lifetime == 6.0  # discovery_timeout * (rreq_retries + 1)
        assert len(seen) == 3
        assert seen_by(seen, (0, 57)) is None
        assert seen_by(seen, (0, 60)) == {0, 1}


class TestLoopFreedom:
    def test_source_routes_never_loop(self):
        rng = np.random.default_rng(17)
        pts = rng.random((20, 2)) * 40
        sim, world, _, router, inbox = make_dsr(pts, radio_range=12)
        for k, (a, b) in enumerate([(0, 19), (3, 15), (5, 12)]):
            router.send(a, b, f"p{k}", kind="app")
        sim.run(until=30.0)
        for dst, src, payload, hops in inbox:
            assert 0 < hops < 20
        for agent in router.agents:
            for dest in range(20):
                route = agent.cache.get(dest)
                if route:
                    assert len(set(route)) == len(route)  # no repeats
