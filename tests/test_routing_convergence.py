"""Convergence properties: protocol routes vs ground-truth BFS.

On a *static* topology, after enough protocol activity:

* DSDV's periodic dumps must converge every metric to the exact BFS
  hop distance (distance-vector fixpoint);
* DSR's discovered routes must be loop-free, valid hop-by-hop walks of
  the radio graph whose length is >= the BFS distance;
* AODV's active routes likewise never beat BFS.

Randomized over topologies with hypothesis.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aodv import AodvRouter
from repro.dsdv import DsdvRouter
from repro.dsr import DsrRouter
from repro.mobility import Area, Static
from repro.net import Channel, World
from repro.sim import Simulator


def random_static(seed, n=14, area=55.0, radio=14.0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * area
    sim = Simulator()
    mobility = Static(n, Area(area, area), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=radio)
    channel = Channel(sim, world)
    return sim, world, channel


class TestDsdvConvergence:
    @given(st.integers(0, 300))
    @settings(max_examples=12, deadline=None)
    def test_metrics_converge_near_bfs(self, seed):
        # DSDV's per-dump sequence numbers make routes flutter: a newer
        # seq arriving over a longer path displaces an older shorter one
        # until the next dump round fixes it (the behaviour DSDV's
        # settling-time mechanism dampens).  The sound invariant at any
        # snapshot is: reachable iff connected, and
        # bfs <= metric <= bfs + small slack.
        sim, world, channel = random_static(seed)
        router = DsdvRouter(sim, channel)
        # Enough periodic rounds for the diameter to propagate.
        sim.run(until=20 * router.cfg.periodic_update)
        for src in range(world.n):
            dist = world.topology.hops_from(src)
            for dst in range(world.n):
                if src == dst:
                    continue
                known = router.route_hops(src, dst)
                if dist[dst] < 0:
                    assert known == DsdvRouter.UNKNOWN
                else:
                    assert dist[dst] <= known <= dist[dst] + 2, (
                        f"dsdv {src}->{dst}: metric {known}, bfs {dist[dst]}"
                    )


class TestDsrRouteValidity:
    @given(st.integers(0, 300))
    @settings(max_examples=12, deadline=None)
    def test_cached_routes_are_valid_walks(self, seed):
        sim, world, channel = random_static(seed)
        router = DsrRouter(sim, channel)
        rng = np.random.default_rng(seed + 1)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, world.n, size=(6, 2))]
        for a, b in pairs:
            if a != b:
                router.send(a, b, "probe", kind="data")
        sim.run(until=30.0)
        adj = world.topology.adjacency_matrix()
        for agent in router.agents:
            for dst in range(world.n):
                route = agent.cache.get(dst)
                if route is None:
                    continue
                assert route[0] == agent.nid and route[-1] == dst
                assert len(set(route)) == len(route)  # loop-free
                for u, v in zip(route, route[1:]):
                    assert adj[u, v], f"cached route uses dead link {u}-{v}"
                bfs = world.topology.hop_distance(agent.nid, dst)
                assert len(route) - 1 >= bfs


class TestAodvNeverBeatsBfs:
    @given(st.integers(0, 300))
    @settings(max_examples=12, deadline=None)
    def test_route_hops_at_least_bfs(self, seed):
        sim, world, channel = random_static(seed)
        router = AodvRouter(sim, channel)
        rng = np.random.default_rng(seed + 2)
        for a, b in rng.integers(0, world.n, size=(6, 2)):
            if a != b:
                router.send(int(a), int(b), "probe", kind="data")
        sim.run(until=30.0)
        for src in range(world.n):
            for dst in range(world.n):
                known = router.route_hops(src, dst)
                if known == AodvRouter.UNKNOWN or src == dst:
                    continue
                bfs = world.topology.hop_distance(src, dst)
                assert bfs > 0  # a known route implies connectivity
                assert known >= bfs
