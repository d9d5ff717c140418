"""Tests for the CSMA contention MAC."""

import numpy as np
import pytest

from repro.mobility import Area, Static
from repro.net import Frame, World
from repro.net.mac import CsmaChannel
from repro.sim import Simulator

from .helpers import line_positions


def make_csma(positions, radio_range=10.0, **kw):
    pts = np.asarray(positions, dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000, 1000), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=radio_range)
    ch = CsmaChannel(sim, world, **kw)
    return sim, world, ch


def collect(ch, nid, kind="t"):
    got = []
    ch.nodes[nid].register(kind, got.append)
    return got


class TestAirtime:
    def test_airtime_scales_with_size(self):
        _, _, ch = make_csma(line_positions(2))
        small = Frame(src=0, dst=1, kind="t", payload=None, size=10)
        big = Frame(src=0, dst=1, kind="t", payload=None, size=1000)
        assert ch.airtime(big) > ch.airtime(small) > 0

    def test_delivery_takes_airtime(self):
        sim, _, ch = make_csma(line_positions(2, spacing=5.0))
        times = []
        ch.nodes[1].register("t", lambda f: times.append(sim.now))
        f = Frame(src=0, dst=1, kind="t", payload=None, size=100)
        ch.unicast(f)
        sim.run()
        assert times and times[0] == pytest.approx(ch.airtime(f))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_csma(line_positions(2), bitrate=0)


class TestCollisions:
    def test_simultaneous_senders_collide_at_receiver(self):
        # 0 and 2 both in range of 1, not of each other (hidden terminals).
        sim, _, ch = make_csma([[0, 0], [8, 0], [16, 0]])
        got = collect(ch, 1)
        ch.unicast(Frame(src=0, dst=1, kind="t", payload="a", size=200))
        ch.unicast(Frame(src=2, dst=1, kind="t", payload="b", size=200))
        sim.run()
        assert got == []  # both copies destroyed
        assert ch.registry.value("net.collisions") >= 1

    def test_spaced_transmissions_both_arrive(self):
        sim, _, ch = make_csma([[0, 0], [8, 0], [16, 0]])
        got = collect(ch, 1)
        ch.unicast(Frame(src=0, dst=1, kind="t", payload="a", size=100))
        gap = ch.airtime(Frame(src=0, dst=1, kind="t", payload=None, size=100)) * 2
        sim.schedule(gap, lambda: ch.unicast(Frame(src=2, dst=1, kind="t", payload="b", size=100)))
        sim.run()
        assert sorted(f.payload for f in got) == ["a", "b"]

    def test_carrier_sense_defers_neighbor(self):
        # 0 and 1 in range of each other; 1 senses 0's transmission and
        # backs off instead of colliding.
        sim, _, ch = make_csma([[0, 0], [5, 0], [10, 0]], max_retries=20)
        got2 = collect(ch, 2)
        ch.unicast(Frame(src=0, dst=1, kind="t", payload="a", size=400))
        ch.unicast(Frame(src=1, dst=2, kind="t", payload="b", size=400))
        sim.run()
        assert ch.registry.value("net.backoffs") >= 1
        assert [f.payload for f in got2] == ["b"]  # deferred, then delivered

    def test_retry_budget_exhausted_drops(self):
        sim, _, ch = make_csma(
            [[0, 0], [5, 0], [10, 0]], max_retries=1, max_backoff_slots=1
        )
        # Saturate the air around node 1 with a huge frame from node 0.
        ch.unicast(Frame(src=0, dst=1, kind="t", payload="jam", size=100_000))
        for _ in range(4):
            ch.unicast(Frame(src=1, dst=2, kind="t", payload="x", size=100))
        sim.run()
        assert ch.registry.value("net.drops_contention") >= 1


class TestBroadcastUnderMac:
    def test_broadcast_reaches_neighbors(self):
        sim, _, ch = make_csma([[10, 10], [15, 10], [10, 15]])
        got1, got2 = collect(ch, 1), collect(ch, 2)
        ch.broadcast(Frame(src=0, dst=-1, kind="t", payload="hello"))
        sim.run()
        assert [f.payload for f in got1] == ["hello"]
        assert [f.payload for f in got2] == ["hello"]


class TestFullScenarioOnCsma:
    def test_overlay_forms_despite_contention(self):
        from repro.scenarios import ScenarioConfig, run_scenario

        res = run_scenario(
            ScenarioConfig(num_nodes=30, duration=300.0, algorithm="regular",
                           mac="csma", seed=41)
        )
        assert res.overlay_stats["mean_degree"] > 0.2
        assert res.totals["connect"] > 0

    def test_invalid_mac_rejected(self):
        from repro.scenarios import ScenarioConfig

        with pytest.raises(ValueError):
            ScenarioConfig(mac="aloha")
