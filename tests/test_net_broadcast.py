"""Tests for TTL-limited controlled flooding with dedup cache."""

import pytest

from repro.net import FloodManager

from .helpers import line_positions, make_world


def setup_flood(positions, radio_range=10.0, kind="flood"):
    sim, world, ch = make_world(positions, radio_range=radio_range)
    inboxes = [[] for _ in ch.nodes]
    dups = [[] for _ in ch.nodes]
    mgrs = [
        FloodManager(
            node,
            ch,
            kind,
            deliver=lambda o, p, h, i=i: inboxes[i].append((o, p, h)),
            count_duplicate=lambda o, p, i=i: dups[i].append((o, p)),
        )
        for i, node in enumerate(ch.nodes)
    ]
    return sim, world, ch, mgrs, inboxes, dups


class TestFloodReach:
    def test_ttl_limits_reach_on_line(self):
        # 6 nodes in a line; flood with budget 3 reaches nodes 1..3 only.
        sim, _, _, mgrs, inboxes, _ = setup_flood(line_positions(6, spacing=8.0))
        mgrs[0].originate("hello", nhops=3)
        sim.run()
        reached = [i for i, box in enumerate(inboxes) if box]
        assert reached == [1, 2, 3]

    def test_hop_counts_reported(self):
        sim, _, _, mgrs, inboxes, _ = setup_flood(line_positions(5, spacing=8.0))
        mgrs[0].originate("x", nhops=4)
        sim.run()
        for i in (1, 2, 3, 4):
            (origin, payload, hops) = inboxes[i][0]
            assert origin == 0 and payload == "x" and hops == i

    def test_nhops_one_is_neighbors_only(self):
        sim, _, _, mgrs, inboxes, _ = setup_flood(line_positions(4, spacing=8.0))
        mgrs[1].originate("y", nhops=1)
        sim.run()
        assert [bool(b) for b in inboxes] == [True, False, True, False]

    def test_zero_nhops_rejected(self):
        _, _, _, mgrs, _, _ = setup_flood(line_positions(2))
        with pytest.raises(ValueError):
            mgrs[0].originate("z", nhops=0)

    def test_origin_does_not_deliver_to_itself(self):
        sim, _, _, mgrs, inboxes, _ = setup_flood([[0, 0], [5, 0], [0, 5]])
        mgrs[0].originate("p", nhops=6)
        sim.run()
        assert inboxes[0] == []


class TestDedup:
    def test_each_node_delivers_once_in_dense_mesh(self):
        # fully connected 5-clique: plenty of duplicate copies fly around
        pts = [[0, 0], [3, 0], [0, 3], [3, 3], [1, 1]]
        sim, _, _, mgrs, inboxes, dups = setup_flood(pts)
        mgrs[0].originate("m", nhops=5)
        sim.run()
        for i in (1, 2, 3, 4):
            assert len(inboxes[i]) == 1
        # duplicates were actually suppressed somewhere
        assert sum(len(d) for d in dups) > 0

    def test_forwarding_bounded(self):
        # Each node forwards each flood at most once: in a clique of k
        # nodes a single flood causes at most k transmissions.
        pts = [[0, 0], [3, 0], [0, 3], [3, 3], [1, 1]]
        sim, _, ch, mgrs, _, _ = setup_flood(pts)
        before = ch.registry.value("net.frames_sent")
        mgrs[0].originate("m", nhops=10)
        sim.run()
        assert ch.registry.value("net.frames_sent") - before <= len(pts)

    def test_two_floods_independent(self):
        sim, _, _, mgrs, inboxes, _ = setup_flood(line_positions(3, spacing=8.0))
        mgrs[0].originate("a", nhops=2)
        mgrs[0].originate("b", nhops=2)
        sim.run()
        assert [p for _, p, _ in inboxes[1]] == ["a", "b"]

    def test_cache_size_and_reset(self):
        sim, _, _, mgrs, _, _ = setup_flood(line_positions(3, spacing=8.0))
        mgrs[0].originate("a", nhops=2)
        sim.run()
        assert mgrs[1].cache_size == 1
        mgrs[1].reset_cache()
        assert mgrs[1].cache_size == 0

    def test_seen_cache_bounded_fifo(self):
        # Long runs must not grow the dedup cache without limit: the
        # oldest ids are evicted first and cache_size stays accurate.
        sim, world, ch = make_world(line_positions(2, spacing=8.0))
        mgr = FloodManager(ch.nodes[0], ch, "bounded")
        assert mgr.seen_limit == FloodManager.seen_limit == 4096
        mgr.seen_limit = 5
        for _ in range(12):
            mgr.originate("x", nhops=1)
        sim.run()
        assert mgr.cache_size == 5
        assert ch.registry.value("flood.evictions", plane="bounded") == 7
        # survivors are the 5 most recent ids
        assert list(mgr._seen) == [(0, s) for s in range(7, 12)]

    def test_seen_limit_validated(self):
        # The bound is a class attribute, not a constructor knob.
        _, _, ch = make_world(line_positions(2, spacing=8.0))
        with pytest.raises(TypeError):
            FloodManager(ch.nodes[0], ch, "bad", seen_limit=0)


class TestMultiplePlanes:
    def test_independent_kinds_do_not_interfere(self):
        sim, world, ch = make_world(line_positions(3, spacing=8.0))
        got_a, got_b = [], []
        fa = [
            FloodManager(n, ch, "plane.a", deliver=lambda o, p, h: got_a.append(p))
            for n in ch.nodes
        ]
        fb = [
            FloodManager(n, ch, "plane.b", deliver=lambda o, p, h: got_b.append(p))
            for n in ch.nodes
        ]
        fa[0].originate("A", nhops=2)
        fb[0].originate("B", nhops=2)
        sim.run()
        assert set(got_a) == {"A"} and set(got_b) == {"B"}
