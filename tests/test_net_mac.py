"""Tests for the CSMA contention MAC."""

import numpy as np
import pytest

from repro.mobility import Area, Static
from repro.net import Channel, EnergyModel, Frame, World
from repro.net.lossy import LossyChannel
from repro.net.mac import CsmaChannel
from repro.sim import Simulator

from .helpers import line_positions, make_world


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

    def test_back_to_back_frames_queue_behind_their_own_sender(self):
        # A node never collides with itself: frames it sends while its
        # previous one is on air wait for it, like an interface queue,
        # spending no backoff and no retry.
        sim, _, ch = make_csma([[0, 0], [5, 0]], max_retries=0)
        got = collect(ch, 1)
        for payload in ("a", "b", "c"):
            ch.unicast(Frame(src=0, dst=1, kind="t", payload=payload, size=200))
        sim.run()
        assert [f.payload for f in got] == ["a", "b", "c"]
        assert ch.registry.value("net.collisions") == 0
        assert ch.registry.value("net.backoffs") == 0
        airtime = ch.airtime(Frame(src=0, dst=1, kind="t", payload=None, size=200))
        assert sim.now == pytest.approx(3 * airtime)

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


class TestEnergyDepletion:
    def test_drained_sender_goes_down_like_on_the_other_channels(self):
        # One broadcast drains node 0's 1 nJ battery: the channel marks
        # it down at once, as Channel and LossyChannel do.
        pts = np.asarray([[0, 0], [5, 0]], dtype=float)
        sim = Simulator()
        mobility = Static(2, Area(1000, 1000), np.random.default_rng(0), positions=pts)
        world = World(sim, mobility, radio_range=10.0, energy=EnergyModel(2, capacity=1e-9))
        ch = CsmaChannel(sim, world)
        ch.broadcast(Frame(src=0, dst=-1, kind="t", payload="last words"))
        assert world.down_mask()[0]
        assert 0 not in world.topology.neighbors(1)
        sim.run()

    @pytest.mark.parametrize("channel_cls", [Channel, LossyChannel, CsmaChannel])
    @pytest.mark.parametrize("mode", ["broadcast", "unicast"])
    def test_drained_sender_still_sends_its_last_frame(self, channel_cls, mode):
        # The receiver set is fixed before the tx charge, so the frame
        # that drains node 1's 1 nJ battery still reaches its receivers
        # on every channel.
        sim, world, _ = make_world(line_positions(3, spacing=5.0), capacity=1e-9)
        ch = channel_cls(sim, world)
        got0, got2 = collect(ch, 0), collect(ch, 2)
        if mode == "broadcast":
            sent = ch.broadcast(Frame(src=1, dst=-1, kind="t", payload="last words"))
            assert sent == 2
        else:
            sent = ch.unicast(Frame(src=1, dst=2, kind="t", payload="last words"))
            assert sent is True
        assert not world.is_up(1) and world.down_mask()[1]
        sim.run()
        assert [f.payload for f in got2] == ["last words"]
        assert [f.payload for f in got0] == (["last words"] if mode == "broadcast" else [])


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
