"""Tests for the radio channel, frames and energy accounting."""

import pytest

from repro.net import BROADCAST, EnergyModel, Frame

from .helpers import line_positions, make_world


def collect(node, kind="t"):
    got = []
    node.register(kind, got.append)
    return got


class TestUnicast:
    def test_in_range_delivery(self):
        sim, world, ch = make_world(line_positions(2, spacing=5.0))
        got = collect(ch.nodes[1])
        ok = ch.unicast(Frame(src=0, dst=1, kind="t", payload="hi"))
        assert ok
        sim.run()
        assert [f.payload for f in got] == ["hi"]

    def test_out_of_range_fails(self):
        sim, world, ch = make_world([[0, 0], [50, 0]])
        got = collect(ch.nodes[1])
        ok = ch.unicast(Frame(src=0, dst=1, kind="t", payload="hi"))
        assert not ok
        sim.run()
        assert got == []

    def test_latency_applied(self):
        sim, world, ch = make_world(line_positions(2, spacing=5.0))
        times = []
        ch.nodes[1].register("t", lambda f: times.append(sim.now))
        ch.unicast(Frame(src=0, dst=1, kind="t", payload=None))
        sim.run()
        assert times == [ch.latency]

    def test_broadcast_dst_rejected_in_unicast(self):
        _, _, ch = make_world(line_positions(2))
        with pytest.raises(ValueError):
            ch.unicast(Frame(src=0, dst=BROADCAST, kind="t", payload=None))

    def test_sender_pays_even_on_miss(self):
        _, world, ch = make_world([[0, 0], [99, 0]])
        before = world.energy.consumed[0]
        ch.unicast(Frame(src=0, dst=1, kind="t", payload=None))
        assert world.energy.consumed[0] > before
        assert world.energy.consumed[1] == 0.0

    def test_down_sender_sends_nothing(self):
        sim, world, ch = make_world(line_positions(2, spacing=5.0))
        got = collect(ch.nodes[1])
        world.set_down(0)
        assert not ch.unicast(Frame(src=0, dst=1, kind="t", payload=None))
        sim.run()
        assert got == []


class TestBroadcast:
    def test_reaches_all_neighbors(self):
        # star: node 0 centre, 3 nodes in range, 1 far away
        sim, world, ch = make_world([[10, 10], [15, 10], [10, 15], [5, 10], [90, 10]])
        received = [collect(n) for n in ch.nodes]
        n = ch.broadcast(Frame(src=0, dst=BROADCAST, kind="t", payload="x"))
        assert n == 3
        sim.run()
        assert [len(r) for r in received] == [0, 1, 1, 1, 0]

    def test_energy_charged_tx_once_rx_per_listener(self):
        sim, world, ch = make_world([[0, 0], [5, 0], [0, 5]])
        ch.broadcast(Frame(src=0, dst=BROADCAST, kind="t", payload=None, size=100))
        sim.run()
        e = world.energy
        tx = e.tx_fixed + e.tx_per_byte * 100
        rx = e.rx_fixed + e.rx_per_byte * 100
        assert list(e.consumed) == [tx, rx, rx]

    def test_receiver_died_in_flight(self):
        sim, world, ch = make_world(line_positions(2, spacing=5.0))
        got = collect(ch.nodes[1])
        ch.broadcast(Frame(src=0, dst=BROADCAST, kind="t", payload=None))
        world.set_down(1)  # dies before the latency elapses
        sim.run()
        assert got == []


class TestDispatch:
    def test_unknown_kind_ignored(self):
        sim, world, ch = make_world(line_positions(2, spacing=5.0))
        ch.unicast(Frame(src=0, dst=1, kind="nobody", payload=None))
        sim.run()  # no handler: dropped silently, no exception

    def test_duplicate_handler_rejected(self):
        _, _, ch = make_world(line_positions(2))
        ch.nodes[0].register("k", lambda f: None)
        with pytest.raises(ValueError):
            ch.nodes[0].register("k", lambda f: None)


class TestEnergyModel:
    def test_costs_scale_with_size(self):
        e = EnergyModel(2)
        e.charge_tx(0, 100)
        e.charge_tx(1, 1000)
        assert e.consumed[1] > e.consumed[0]

    def test_depletion(self):
        e = EnergyModel(1, capacity=1e-4)
        assert e.alive(0)
        e.charge_rx(0, 10_000)
        assert not e.alive(0)
        assert e.depleted()[0]
        assert e.consumed[0] >= e.capacity

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EnergyModel(0)
        with pytest.raises(ValueError):
            EnergyModel(1, capacity=0)

    def test_total(self):
        e = EnergyModel(3)
        e.charge_tx(0, 10)
        e.charge_rx(1, 10)
        assert e.total_consumed() == pytest.approx(
            e.consumed[0] + e.consumed[1]
        )
