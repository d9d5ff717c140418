"""Tests for TTL-limited controlled flooding with its expiring dedup table."""

import pytest

from repro.aodv.protocol import KIND_RREQ
from repro.core.overlay import FLOOD_KIND
from repro.net import FloodManager, Frame, SeenTable
from repro.net.broadcast import FloodMessage
from repro.scenarios import ScenarioConfig, build_scenario

from .helpers import line_positions, make_world, pin_never_forget


def setup_flood(positions, radio_range=10.0, kind="flood"):
    sim, world, ch = make_world(positions, radio_range=radio_range)
    inboxes = [[] for _ in ch.nodes]
    dups = [[] for _ in ch.nodes]
    flood = FloodManager(ch, kind)
    for i in range(len(ch.nodes)):
        flood.deliver[i] = lambda o, p, h, v, i=i: inboxes[i].append((o, p, h))
        flood.count_duplicate[i] = lambda o, p, v, i=i: dups[i].append((o, p))
    return sim, world, ch, flood, inboxes, dups


class TestFloodReach:
    def test_ttl_limits_reach_on_line(self):
        # 6 nodes in a line; flood with budget 3 reaches nodes 1..3 only.
        sim, _, _, flood, inboxes, _ = setup_flood(line_positions(6, spacing=8.0))
        flood.originate(0, "hello", nhops=3)
        sim.run()
        reached = [i for i, box in enumerate(inboxes) if box]
        assert reached == [1, 2, 3]

    def test_hop_counts_reported(self):
        sim, _, _, flood, inboxes, _ = setup_flood(line_positions(5, spacing=8.0))
        flood.originate(0, "x", nhops=4)
        sim.run()
        for i in (1, 2, 3, 4):
            (origin, payload, hops) = inboxes[i][0]
            assert origin == 0 and payload == "x" and hops == i

    def test_first_copy_reports_the_neighbour_it_came_from(self):
        sim, _, _, flood, _, _ = setup_flood(line_positions(4, spacing=8.0))
        via = {}
        flood.deliver[:] = [lambda o, p, h, v, i=i: via.__setitem__(i, v) for i in range(4)]
        flood.originate(0, "v", nhops=3)
        sim.run()
        assert via == {1: 0, 2: 1, 3: 2}

    def test_consuming_node_does_not_relay(self):
        # Node 2 answers (consumes) the flood: node 3 never hears it.
        sim, _, ch, flood, inboxes, _ = setup_flood(line_positions(4, spacing=8.0))
        flood.deliver[2] = lambda o, p, h, v: inboxes[2].append((o, p, h)) or True
        flood.originate(0, "c", nhops=3)
        sim.run()
        assert [bool(b) for b in inboxes] == [False, True, True, False]
        assert ch.registry.value("flood.forwarded", plane="flood") == 1

    def test_nhops_one_is_neighbors_only(self):
        sim, _, _, flood, inboxes, _ = setup_flood(line_positions(4, spacing=8.0))
        flood.originate(1, "y", nhops=1)
        sim.run()
        assert [bool(b) for b in inboxes] == [True, False, True, False]

    def test_zero_nhops_rejected(self):
        _, _, _, flood, _, _ = setup_flood(line_positions(2))
        with pytest.raises(ValueError):
            flood.originate(0, "z", nhops=0)

    def test_origin_does_not_deliver_to_itself(self):
        sim, _, _, flood, inboxes, _ = setup_flood([[0, 0], [5, 0], [0, 5]])
        flood.originate(0, "p", nhops=6)
        sim.run()
        assert inboxes[0] == []


class TestDedup:
    def test_each_node_delivers_once_in_dense_mesh(self):
        # fully connected 5-clique: plenty of duplicate copies fly around
        pts = [[0, 0], [3, 0], [0, 3], [3, 3], [1, 1]]
        sim, _, _, flood, inboxes, dups = setup_flood(pts)
        flood.originate(0, "m", nhops=5)
        sim.run()
        for i in (1, 2, 3, 4):
            assert len(inboxes[i]) == 1
        # duplicates were actually suppressed somewhere
        assert sum(len(d) for d in dups) > 0

    def test_forwarding_bounded(self):
        # Each node forwards each flood at most once: in a clique of k
        # nodes a single flood causes at most k transmissions.
        pts = [[0, 0], [3, 0], [0, 3], [3, 3], [1, 1]]
        sim, _, ch, flood, _, _ = setup_flood(pts)
        before = ch.registry.value("net.frames_sent")
        flood.originate(0, "m", nhops=10)
        sim.run()
        assert ch.registry.value("net.frames_sent") - before <= len(pts)

    def test_two_floods_independent(self):
        sim, _, _, flood, inboxes, _ = setup_flood(line_positions(3, spacing=8.0))
        flood.originate(0, "a", nhops=2)
        flood.originate(0, "b", nhops=2)
        sim.run()
        assert [p for _, p, _ in inboxes[1]] == ["a", "b"]

    def test_seen_cache_bounded_fifo(self):
        # Long runs must not grow the dedup table without limit: an id is
        # forgotten LIFETIME seconds after it was first seen, oldest
        # first, when a newer id arrives; flood.ids_live tracks the size.
        sim, _, ch, flood, inboxes, _ = setup_flood(line_positions(2), kind="bounded")
        assert FloodManager.LIFETIME == 10.0
        for t in range(12):
            sim.schedule_at(float(t), flood.originate, 0, t, 1)
        sim.run()
        assert [p for _, p, _ in inboxes[1]] == list(range(12))
        # (0, 0) was first seen at t = 0, more than 10 s before (0, 11).
        assert ch.registry.value("flood.ids_live", plane="bounded") == 11
        assert flood.seen.seen_by((0, 0)) is None
        assert all(flood.seen.seen_by((0, s)) == {0, 1} for s in range(1, 12))
        # A forgotten id is fresh again: node 1 takes a late copy as new.
        late = FloodMessage(fid=(0, 0), origin=0, hops=0, budget=1, payload="late")
        ch.broadcast(Frame(src=0, dst=-1, kind="bounded", payload=late))
        sim.run()
        assert inboxes[1][-1] == (0, "late", 1)

    def test_seen_limit_validated(self):
        # The table is bounded by age, not size: there is no size knob,
        # and the age bound is the plane's own lifetime.
        _, _, ch = make_world(line_positions(2, spacing=8.0))
        with pytest.raises(TypeError):
            FloodManager(ch, "bad", seen_limit=0)
        assert FloodManager(ch, "default").seen.lifetime == FloodManager.LIFETIME
        assert FloodManager(ch, "short", lifetime=0.5).seen.lifetime == 0.5


class TestMultiplePlanes:
    def test_independent_kinds_do_not_interfere(self):
        sim, world, ch = make_world(line_positions(3, spacing=8.0))
        got_a, got_b = [], []
        series = len(ch.registry)
        fa = FloodManager(ch, "plane.a")
        fb = FloodManager(ch, "plane.b")
        # four series per plane, no per-node cells
        assert len(ch.registry) - series == 2 * 4
        fa.deliver[:] = [lambda o, p, h, v: got_a.append(p)] * world.n
        fb.deliver[:] = [lambda o, p, h, v: got_b.append(p)] * world.n
        fa.originate(0, "A", nhops=2)
        fb.originate(0, "B", nhops=2)
        sim.run()
        assert set(got_a) == {"A"} and set(got_b) == {"B"}
        for plane in ("plane.a", "plane.b"):
            assert ch.registry.value("flood.originated", plane=plane) == 1
            assert ch.registry.value("flood.forwarded", plane=plane) == 1


class TestLifetimeNeverBinds:
    """On paper shapes no copy of a flood outlives its plane's lifetime:
    the expiring table behaves exactly like one that never forgets.

    One never-forgetting run shows it for both flood planes, the p2p
    discovery flood (``FloodManager.LIFETIME``, 10 s) and AODV's route
    requests (PATH_DISCOVERY_TIME, 3.2 s).  The expiring table drops an
    id only once the id is older than the lifetime (when a newer id
    arrives), so if every lookup of an id comes younger than that, each
    lookup finds what the never-forgetting table finds, and the two runs
    are one run.
    """

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(num_nodes=150, algorithm="hybrid", duration=600.0, seed=1),
            ScenarioConfig(
                num_nodes=50, algorithm="random", duration=300.0, seed=1,
                rebroadcast="counter:2", mac="csma",
            ),
        ],
        ids=["hybrid_150", "random_50_counter_csma"],
    )
    def test_expiring_table_equals_never_forget(self, cfg, monkeypatch):
        simulation = build_scenario(cfg)
        lifetimes = {
            FLOOD_KIND: simulation.overlay.flood.seen.lifetime,
            KIND_RREQ: simulation.router.flood.seen.lifetime,
        }
        assert lifetimes == {FLOOD_KIND: FloodManager.LIFETIME, KIND_RREQ: 3.2}
        planes = {
            FLOOD_KIND: pin_never_forget(simulation.overlay.flood).seen,
            KIND_RREQ: pin_never_forget(simulation.router.flood).seen,
        }
        born = {plane: {} for plane in planes}  # id -> time of its first insert
        oldest = dict.fromkeys(planes, 0.0)  # greatest age of an id at a lookup
        entry = SeenTable.entry

        def timed_entry(self, key):
            for plane, table in planes.items():
                if self is table:
                    now = self._sim.now
                    age = now - born[plane].setdefault(key, now)
                    oldest[plane] = max(oldest[plane], age)
            return entry(self, key)

        monkeypatch.setattr(SeenTable, "entry", timed_entry)
        simulation.run()
        for plane, table in planes.items():
            assert 0.0 < oldest[plane] < lifetimes[plane]
            originated = simulation.registry.value("flood.originated", plane=plane)
            assert len(table) == len(born[plane]) == originated
        # ... and the check is not vacuous: ids do age past the lifetime,
        # so the expiring table, evicting at the last new id, would keep
        # under a tenth of them.
        for plane, lifetime in lifetimes.items():
            last = max(born[plane].values())
            kept = sum(1 for first in born[plane].values() if not last > first + lifetime)
            assert kept < len(born[plane]) / 10
