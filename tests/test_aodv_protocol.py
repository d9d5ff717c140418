"""Integration tests for AODV route discovery, forwarding and repair."""

import numpy as np
import pytest

from repro.aodv import AodvConfig, AodvRouter
from repro.aodv.messages import Rreq
from repro.aodv.protocol import KIND_CTRL, KIND_RREQ
from repro.mobility import Area, Static
from repro.net import Channel, Frame, World
from repro.net.broadcast import FloodMessage
from repro.sim import Simulator

from .helpers import line_positions, pin_per_copy_delivery


def make_aodv(positions, radio_range=10.0, config=None, batched=True):
    pts = np.asarray(positions, dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000, 1000), np.random.default_rng(0), positions=pts)
    world = World(sim, mobility, radio_range=radio_range)
    channel = Channel(sim, world)
    if not batched:
        pin_per_copy_delivery(channel)
    router = AodvRouter(sim, channel, config=config)
    inbox = []
    router.register("app", lambda dst, src, payload, hops: inbox.append((dst, src, payload, hops)))
    return sim, world, channel, router, inbox


class TestDiscoveryAndDelivery:
    def test_multihop_delivery_on_line(self):
        sim, _, _, router, inbox = make_aodv(line_positions(5, spacing=8.0))
        router.send(0, 4, "hello", kind="app")
        sim.run(until=5.0)
        assert inbox == [(4, 0, "hello", 4)]

    def test_loopback(self):
        sim, _, _, router, inbox = make_aodv(line_positions(2, spacing=8.0))
        router.send(1, 1, "self", kind="app")
        sim.run(until=1.0)
        assert inbox == [(1, 1, "self", 0)]

    def test_single_hop(self):
        sim, _, _, router, inbox = make_aodv(line_positions(2, spacing=8.0))
        router.send(0, 1, "hi", kind="app")
        sim.run(until=2.0)
        assert inbox == [(1, 0, "hi", 1)]

    def test_route_cached_after_discovery(self):
        sim, _, _, router, inbox = make_aodv(line_positions(4, spacing=8.0))
        router.send(0, 3, "a", kind="app")
        sim.run(until=2.0)
        rreqs_after_first = router.registry.value("routing.rreq_sent", protocol="aodv")
        router.send(0, 3, "b", kind="app")
        sim.run(until=2.5)
        assert [p for _, _, p, _ in inbox] == ["a", "b"]
        # Second send reused the cached route: no new RREQ.
        assert (
            router.registry.value("routing.rreq_sent", protocol="aodv")
            == rreqs_after_first
        )

    def test_route_hops_reported(self):
        sim, _, _, router, _ = make_aodv(line_positions(4, spacing=8.0))
        assert router.route_hops(0, 3) == AodvRouter.UNKNOWN
        router.send(0, 3, "x", kind="app")
        sim.run(until=2.0)
        assert router.route_hops(0, 3) == 3
        assert router.route_hops(2, 2) == 0

    def test_expanding_ring_eventually_reaches_far_node(self):
        # 9 hops away: beyond ttl_start and threshold, needs net_diameter ring
        sim, _, _, router, inbox = make_aodv(line_positions(10, spacing=8.0))
        router.send(0, 9, "far", kind="app")
        sim.run(until=20.0)
        assert inbox == [(9, 0, "far", 9)]

    def test_unreachable_calls_on_fail(self):
        sim, _, _, router, inbox = make_aodv([[0, 0], [8, 0], [500, 500]])
        failed = []
        router.send(0, 2, "nope", kind="app", on_fail=failed.append)
        sim.run(until=60.0)
        assert failed == ["nope"]
        assert inbox == []

    def test_bidirectional_traffic(self):
        sim, _, _, router, inbox = make_aodv(line_positions(4, spacing=8.0))
        router.send(0, 3, "fwd", kind="app")
        sim.run(until=2.0)
        router.send(3, 0, "rev", kind="app")
        sim.run(until=4.0)
        assert (3, 0, "fwd", 3) in inbox and (0, 3, "rev", 3) in inbox


class TestIntermediateReply:
    def test_intermediate_node_with_route_replies(self):
        sim, _, _, router, inbox = make_aodv(line_positions(5, spacing=8.0))
        # Prime node 2's table with a route to 4.
        router.send(2, 4, "prime", kind="app")
        sim.run(until=2.0)
        rreqs_before = sim.registry.value("routing.rreq_sent", protocol="aodv")
        router.send(0, 4, "main", kind="app")
        sim.run(until=4.0)
        assert (4, 0, "main", 4) in inbox
        # Node 0 originated a RREQ but node 2 answered from its cache:
        # only ONE new rreq origination (node 0's ring), and node 2
        # produced an intermediate RREP.
        assert sim.registry.value("routing.rreq_sent", protocol="aodv") == rreqs_before + 1


class TestRepair:
    def test_broken_route_triggers_rediscovery(self):
        sim, world, _, router, inbox = make_aodv(
        [[0, 0], [8, 0], [16, 0], [8, 6], [24, 0]]
        )
        # Path 0-1-2... wait for initial route, then kill node 1.
        router.send(0, 2, "first", kind="app")
        sim.run(until=2.0)
        assert (2, 0, "first", 2) in inbox
        world.set_down(1)
        router.send(0, 2, "second", kind="app")
        sim.run(until=10.0)
        # 0 -> 3 -> 2 detour (node 3 bridges at distance 10 from both)
        assert any(p == "second" for _, _, p, _ in inbox)

    def test_rerr_invalidates_neighbor_routes(self):
        sim, world, _, router, _ = make_aodv(line_positions(4, spacing=8.0))
        router.send(0, 3, "x", kind="app")
        sim.run(until=2.0)
        assert router.route_hops(1, 3) == 2  # relay learned the route
        world.set_down(2)
        router.send(0, 3, "y", kind="app")
        sim.run(until=1000.0)
        # After the failed forward + RERR, upstream routes through 2 die.
        assert router.route_hops(1, 3) == AodvRouter.UNKNOWN

    def test_queue_overflow_fails_packets(self):
        cfg = AodvConfig(queue_per_dest=2)
        sim, _, _, router, _ = make_aodv([[0, 0], [8, 0], [500, 500]], config=cfg)
        failed = []
        for i in range(5):
            router.send(0, 2, f"m{i}", kind="app", on_fail=failed.append)
        sim.run(until=60.0)
        assert sorted(failed) == [f"m{i}" for i in range(5)]


class TestRreqDedup:
    """RREQ dedup is the router's ``aodv.rreq`` flood plane
    (:class:`~repro.net.broadcast.FloodManager`), its table read once
    per transmission."""

    #: four nodes all in range of each other: every broadcast is a batch of 3
    CLIQUE = [[0, 0], [4, 0], [0, 4], [4, 4]]

    def _discover_in_clique(self, batched, rebroadcast="flood"):
        """Discover 3 from 0; returns the world, the channel, per plane
        call on an RREQ ``(receivers, the fresh ones among them)`` and
        the ``(nid, key)`` of every ``policy.duplicate`` call."""
        sim = Simulator()
        mobility = Static(
            4, Area(1000, 1000), np.random.default_rng(0), positions=np.asarray(self.CLIQUE, float)
        )
        world = World(sim, mobility)
        channel = Channel(sim, world)
        if not batched:
            pin_per_copy_delivery(channel)
        router = AodvRouter(sim, channel, rebroadcast=rebroadcast)
        inbox = []
        router.register("app", lambda *delivery: inbox.append(delivery))
        plane = channel._planes[KIND_RREQ]
        rreq_calls = []

        def spy(receivers, frame):
            msg = frame.payload
            assert isinstance(msg.payload, Rreq)
            seen = router.flood.seen.seen_by(msg.fid) or set()
            rreq_calls.append((list(receivers), [d for d in receivers if d not in seen]))
            plane(receivers, frame)

        channel._planes[KIND_RREQ] = spy
        duplicates = []
        policy = router.flood.policy
        if policy is not None:
            duplicate = policy.duplicate

            def spy_duplicate(nid, key):
                duplicates.append((nid, key))
                duplicate(nid, key)

            policy.duplicate = spy_duplicate
        router.send(0, 3, "x", kind="app")
        sim.run(until=2.0)
        assert inbox == [(3, 0, "x", 1)]
        return world, channel, rreq_calls, duplicates

    def test_hinted_duplicate_is_charged_and_counted_but_not_handled(self):
        world, channel, calls, _ = self._discover_in_clique(batched=True)
        ref_world, ref_channel, ref_calls, _ = self._discover_in_clique(batched=False)
        # Origin 0 floods, relays 1 and 2 rebroadcast (3 is the
        # destination): 9 RREQ copies, 3 fresh and 6 duplicates.  The
        # reference lane hands the plane one copy per call, the batch
        # one transmission per call ...
        assert len(ref_calls) == 9 and len(calls) == 3
        for lane in (calls, ref_calls):
            assert sorted(d for receivers, _ in lane for d in receivers) == [0, 0, 1, 1, 2, 2, 3, 3, 3]
            assert sorted(d for _, fresh in lane for d in fresh) == [1, 2, 3]
        # ... and every copy was heard: same delivery count, same
        # per-node rx counts and energy as the per-copy reference.
        delivered = channel.registry.value("net.frames_delivered")
        assert delivered == ref_channel.registry.value("net.frames_delivered") == 9 + 2
        assert np.array_equal(world.energy.rx_count, ref_world.energy.rx_count)
        assert np.array_equal(world.energy.consumed, ref_world.energy.consumed)
        assert int(world.energy.rx_count.sum()) == delivered

    def test_no_hint_with_hello_sensing_or_a_suppression_policy(self):
        # AODV itself reads no duplicate (it has no HELLO link sensing);
        # only a suppression policy does, and then the plane hands it
        # every copy.
        _, _, channel, router, _ = make_aodv(self.CLIQUE)
        assert KIND_CTRL in channel._planes and KIND_RREQ in channel._planes
        assert all(f is None for f in router.flood.count_duplicate)
        _, _, calls, duplicates = self._discover_in_clique(True, "counter:2")
        _, _, ref_calls, ref_duplicates = self._discover_in_clique(False, "counter:2")
        # Every RREQ copy a node had already processed reached the policy,
        # in the per-copy reference's order.
        copies = [(d, fresh) for receivers, fresh in calls for d in receivers]
        expected = sorted(d for d, fresh in copies if d not in fresh)
        assert duplicates and sorted(nid for nid, _ in duplicates) == expected
        assert duplicates == ref_duplicates

    def test_second_hint_for_a_kind_raises(self):
        _, _, channel, _, _ = make_aodv(self.CLIQUE)
        for kind in (KIND_CTRL, KIND_RREQ):
            with pytest.raises(ValueError):
                channel.register_plane(kind, lambda receivers, frame: None)

    def test_evicted_key_is_accepted_again(self):
        # Node 2 is unreachable: node 0 burns through all six discovery
        # attempts (flood ids (0, 0)..(0, 5), sent at 0, 0.32, 0.8,
        # 1.44, 3.2 and 4.96 s), each heard by node 1 only.
        sim, _, channel, router, _ = make_aodv([[0, 0], [8, 0], [500, 500]])
        live = channel.registry.gauge("flood.ids_live", plane=KIND_RREQ)
        # The plane keeps a RREQ id for PATH_DISCOVERY_TIME.
        assert router.flood.seen.lifetime == AodvConfig().path_discovery_time() == 3.2

        def replay_first_rreq():
            """Re-air RREQ (0, 0); returns how many frames that caused."""
            before = channel.registry.value("net.frames_sent")
            rreq = Rreq(origin=0, origin_seq=1, dest=2, dest_seq=-1)
            msg = FloodMessage(fid=(0, 0), origin=0, hops=0, budget=2, payload=rreq)
            channel.broadcast(Frame(src=0, dst=-1, kind=KIND_RREQ, payload=msg, size=48))
            sim.run(until=sim.now + 0.01)
            return channel.registry.value("net.frames_sent") - before

        router.send(0, 2, "nope", kind="app")
        sim.run(until=0.1)
        assert live.value == 1
        assert replay_first_rreq() == 1  # a duplicate: node 1 stays silent
        sim.run(until=1.5)
        assert live.value == 4
        # The last attempt at 4.96 s: the ids older than the lifetime,
        # (0, 0)..(0, 3), are dropped as it arrives -- the table does
        # not grow with the run.
        sim.run(until=5.0)
        assert live.value == 2  # (0, 4) and (0, 5)
        assert replay_first_rreq() == 2  # fresh again: node 1 forwards it


class TestLoopFreedom:
    def test_no_forwarding_loops_under_churn(self):
        # Random topology with churn: every delivered packet must have
        # travelled at most n hops (a loop would exceed it / never end).
        rng = np.random.default_rng(42)
        pts = rng.random((25, 2)) * 40
        sim, world, _, router, inbox = make_aodv(pts, radio_range=12)
        for k, (a, b) in enumerate([(0, 20), (5, 15), (3, 22), (7, 19)]):
            router.send(a, b, f"pkt{k}", kind="app")
        sim.schedule(1.0, world.set_down, 10)
        sim.schedule(1.5, world.set_down, 11)
        for k, (a, b) in enumerate([(0, 20), (5, 15)]):
            sim.schedule(
                2.0, lambda a=a, b=b, k=k: router.send(a, b, f"late{k}", kind="app")
            )
        sim.run(until=30.0)
        for dst, src, payload, hops in inbox:
            assert 0 < hops <= 25


class TestConfig:
    def test_ring_ttls_monotone_then_capped(self):
        cfg = AodvConfig(ttl_start=2, ttl_increment=2, ttl_threshold=7, net_diameter=20, rreq_retries=2)
        ttls = cfg.ring_ttls()
        assert ttls == [2, 4, 6, 20, 20, 20]

    def test_discovery_timeout_scales_with_ttl(self):
        cfg = AodvConfig()
        assert cfg.discovery_timeout(10) > cfg.discovery_timeout(2)
