"""Cross-layer property tests: flood reach vs BFS, AODV vs oracle.

These pin down the invariants that make the paper's hop-based logic
meaningful: the controlled broadcast reaches exactly the BFS ball of its
TTL, and AODV's delivered hop counts can never beat the BFS distance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aodv import AodvRouter
from repro.mobility import Area, Static
from repro.net import Channel, FloodManager, World
from repro.sim import Simulator


def random_world(seed, n=20, area=60.0, radio=12.0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * area
    sim = Simulator()
    mobility = Static(n, Area(area, area), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=radio)
    channel = Channel(sim, world)
    return sim, world, channel


class TestFloodVsBfs:
    @given(st.integers(0, 500), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_flood_reaches_exactly_the_bfs_ball(self, seed, ttl):
        sim, world, channel = random_world(seed)
        heard = set()
        flood = FloodManager(channel, "f")
        flood.deliver[:] = [lambda o, p, h, i=i: heard.add(i) for i in range(world.n)]
        flood.originate(0, "x", nhops=ttl)
        sim.run()
        dist = world.hops_from(0)
        expected = {i for i in range(world.n) if 0 < dist[i] <= ttl}
        assert heard == expected

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_flood_hop_counts_match_bfs(self, seed):
        sim, world, channel = random_world(seed)
        hops_seen = {}
        flood = FloodManager(channel, "f")
        flood.deliver[:] = [
            lambda o, p, h, i=i: hops_seen.setdefault(i, h) for i in range(world.n)
        ]
        flood.originate(0, "x", nhops=8)
        sim.run()
        dist = world.hops_from(0)
        for node, h in hops_seen.items():
            # The first copy to arrive travelled a shortest path.
            assert h == dist[node]


class TestAodvVsBfs:
    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_delivered_hops_at_least_bfs_distance(self, seed):
        sim, world, channel = random_world(seed)
        router = AodvRouter(sim, channel)
        delivered = []
        router.register("t", lambda dst, src, p, h: delivered.append((src, dst, h)))
        targets = [(0, world.n - 1), (1, world.n // 2), (2, world.n - 3)]
        for a, b in targets:
            if a != b:
                router.send(a, b, "x", kind="t")
        sim.run(until=30.0)
        for src, dst, h in delivered:
            bfs = world.hop_distance(src, dst)
            assert bfs > 0
            assert h >= bfs  # can't beat the shortest path
            assert h <= world.n  # and never loops

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_static_world_aodv_finds_route_iff_connected(self, seed):
        sim, world, channel = random_world(seed, n=15)
        router = AodvRouter(sim, channel)
        ok, failed = [], []
        router.register("t", lambda dst, src, p, h: ok.append(dst))
        router.send(0, 14, "x", kind="t", on_fail=lambda p: failed.append(p))
        sim.run(until=60.0)
        if world.reachable(0, 14):
            assert ok == [14] and not failed
        else:
            assert failed == ["x"] and not ok
