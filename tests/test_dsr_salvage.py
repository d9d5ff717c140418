"""Tests for DSR packet salvaging."""

import numpy as np

from repro.dsr import DsrConfig, DsrRouter
from repro.mobility import Area, Static
from repro.net import Channel, World
from repro.sim import Simulator


def diamond_topology():
    """0 - 1 - 3 with a parallel relay 2: 0-1, 1-3, 0-2?, 2-3.

    Positions: 0 at origin; 1 and 2 both bridge to 3.
    """
    # node 4 is a far-away island used as an unreachable next hop
    return [[0.0, 0.0], [8.0, 0.0], [8.0, 6.0], [16.0, 0.0], [500.0, 500.0]]


def make(config=None):
    pts = np.asarray(diamond_topology(), dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000, 1000), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=10.0)
    channel = Channel(sim, world)
    router = DsrRouter(sim, channel, config=config)
    inbox = []
    router.register("app", lambda dst, src, p, h: inbox.append((dst, src, p, h)))
    return sim, world, router, inbox


def salvaged(sim):
    return sim.registry.value("routing.salvaged", protocol="dsr")


class TestSalvage:
    def _prime_relay_with_alternate(self, sim, router):
        # Give relay 1 a cached route to 3 via 2 as the alternate by
        # letting node 1 discover 3 through... 1 reaches 3 directly, so
        # inject the alternate cache entry explicitly (it could have
        # been overheard in a richer run).
        router.agents[1].cache.offer([1, 2, 3])

    def test_relay_salvages_when_next_hop_dies(self):
        sim, world, router, inbox = make()
        # 0 discovers a route to 3 (likely 0-1-3).
        router.send(0, 3, "first", kind="app")
        sim.run(until=3.0)
        assert any(p == "first" for _, _, p, _ in inbox)
        route = router.agents[0].cache.get(3)
        assert route is not None
        relay = route[1]
        other = 2 if relay == 1 else 1
        # The relay holds an alternate route via the other bridge; hand
        # it a packet whose source route points at the unreachable
        # island (node 4) to trigger the salvage path deterministically.
        router.agents[relay].cache.offer([relay, other, 3])
        agent = router.agents[relay]
        from repro.dsr.protocol import DsrData

        pkt = DsrData(
            src=0, dst=3, kind_upper="app", payload="salvaged!", size=64,
            route=[0, relay, 4], index=1,  # next hop 4: out of range
        )
        before = salvaged(sim)
        agent._transmit(pkt)
        sim.run(until=6.0)
        assert salvaged(sim) == before + 1
        assert any(p == "salvaged!" for _, _, p, _ in inbox)

    def test_salvage_disabled(self):
        cfg = DsrConfig(salvage=False)
        sim, world, router, inbox = make(config=cfg)
        router.send(0, 3, "x", kind="app")
        sim.run(until=3.0)
        route = router.agents[0].cache.get(3)
        relay = route[1]
        other = 2 if relay == 1 else 1
        router.agents[relay].cache.offer([relay, other, 3])
        from repro.dsr.protocol import DsrData

        agent = router.agents[relay]
        pkt = DsrData(
            src=0, dst=3, kind_upper="app", payload="lost", size=64,
            route=[0, relay, 4], index=1,
        )
        agent._transmit(pkt)
        sim.run(until=6.0)
        assert salvaged(sim) == 0
        assert not any(p == "lost" for _, _, p, _ in inbox)

    def test_salvage_budget_respected(self):
        sim, world, router, inbox = make()
        from repro.dsr.protocol import DsrData

        agent = router.agents[1]
        agent.cache.offer([1, 2, 3])
        pkt = DsrData(
            src=0, dst=3, kind_upper="app", payload="tired", size=64,
            route=[0, 1, 4], index=1, salvaged=2,  # budget exhausted
        )
        agent._transmit(pkt)
        sim.run(until=6.0)
        assert salvaged(sim) == 0
        assert not any(p == "tired" for _, _, p, _ in inbox)

    def test_control_overhead_reports_salvages(self):
        sim, world, router, _ = make()
        assert "salvaged" in router.control_overhead()
