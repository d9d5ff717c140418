"""Tests for the lossy (smooth-disk) radio channel."""

import numpy as np
import pytest

from repro.mobility import Area, Static
from repro.net import Frame, World
from repro.net.lossy import LossyChannel
from repro.sim import Simulator


def make_lossy(positions, radio_range=10.0, **kw):
    pts = np.asarray(positions, dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000, 1000), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=radio_range)
    ch = LossyChannel(sim, world, **kw)
    return sim, world, ch


class TestDeliveryProbability:
    def test_solid_core_certain(self):
        _, _, ch = make_lossy([[0, 0], [5, 0]], solid=0.8)  # 5 m < 8 m core
        assert ch.delivery_probability(0, 1) == 1.0

    def test_edge_probability(self):
        _, _, ch = make_lossy([[0, 0], [10, 0]], solid=0.8, edge_p=0.3)
        assert ch.delivery_probability(0, 1) == pytest.approx(0.3)

    def test_midway_linear(self):
        _, _, ch = make_lossy([[0, 0], [9, 0]], solid=0.8, edge_p=0.0)
        # d=9: halfway between s=8 and r=10 -> p = 0.5
        assert ch.delivery_probability(0, 1) == pytest.approx(0.5)

    def test_beyond_range_zero(self):
        _, _, ch = make_lossy([[0, 0], [15, 0]])
        assert ch.delivery_probability(0, 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_lossy([[0, 0], [5, 0]], solid=0.0)
        with pytest.raises(ValueError):
            make_lossy([[0, 0], [5, 0]], edge_p=2.0)


class TestLossBehaviour:
    def test_core_links_always_deliver(self):
        sim, _, ch = make_lossy([[0, 0], [5, 0]])
        got = []
        ch.nodes[1].register("t", got.append)
        for _ in range(50):
            ch.unicast(Frame(src=0, dst=1, kind="t", payload=None))
        sim.run()
        assert len(got) == 50
        assert ch.registry.value("net.losses") == 0

    def test_edge_links_lose_roughly_expected_fraction(self):
        sim, _, ch = make_lossy([[0, 0], [9.9, 0]], solid=0.8, edge_p=0.3, seed=4)
        got = []
        ch.nodes[1].register("t", got.append)
        n = 400
        for _ in range(n):
            ch.unicast(Frame(src=0, dst=1, kind="t", payload=None))
        sim.run()
        p = ch.delivery_probability(0, 1)
        assert 0.3 <= p <= 0.4
        assert abs(len(got) / n - p) < 0.1  # matches the model
        assert ch.registry.value("net.losses") == n - len(got)

    def test_broadcast_losses_independent_per_receiver(self):
        # two edge receivers: some broadcasts reach one but not the other
        sim, _, ch = make_lossy(
            [[0, 0], [9.5, 0], [0, 9.5]], solid=0.5, edge_p=0.5, seed=9
        )
        got1, got2 = [], []
        ch.nodes[1].register("t", got1.append)
        ch.nodes[2].register("t", got2.append)
        for _ in range(200):
            ch.broadcast(Frame(src=0, dst=-1, kind="t", payload=None))
        sim.run()
        assert 0 < len(got1) < 200 and 0 < len(got2) < 200
        assert len(got1) != len(got2)  # independent draws

    def test_deterministic_given_seed(self):
        def run(seed):
            sim, _, ch = make_lossy([[0, 0], [9.5, 0]], seed=seed)
            got = []
            ch.nodes[1].register("t", got.append)
            for _ in range(100):
                ch.unicast(Frame(src=0, dst=1, kind="t", payload=None))
            sim.run()
            return len(got)

        assert run(7) == run(7)


class TestScenarioOnLossy:
    def test_overlay_survives_lossy_links(self):
        from repro.scenarios import ScenarioConfig, run_scenario

        res = run_scenario(
            ScenarioConfig(
                num_nodes=30, duration=300.0, algorithm="regular", mac="lossy", seed=61
            )
        )
        assert res.overlay_stats["mean_degree"] > 0.2
        assert res.totals["ping"] > 0
