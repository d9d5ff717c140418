"""Tests for the Gnutella-like query engine over a fake overlay."""

import pytest

from repro.core import Query, QueryConfig
from repro.sim import Simulator

from .fakes import FakeFabric, FakeServent, make_overlay_line


class TestQueryConfigValidation:
    def test_bad_ttl(self):
        with pytest.raises(ValueError):
            QueryConfig(ttl=0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            QueryConfig(target="weird")

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            QueryConfig(gap_min=50, gap_max=10)


class TestIssueAndAnswer:
    def test_neighbor_with_file_answers(self):
        sim = Simulator()
        _, s = make_overlay_line(sim, 3, files_at={1: {7}}, num_files=10)
        rec = s[0].query_engine.issue_query(file_id=7)
        sim.run(until=1.0)
        assert rec.answered
        assert rec.answers[0][0] == 1  # holder
        assert rec.min_p2p_hops == 1

    def test_distance_reflects_holder_position(self):
        sim = Simulator()
        _, s = make_overlay_line(sim, 5, files_at={3: {2}}, num_files=10)
        rec = s[0].query_engine.issue_query(file_id=2)
        sim.run(until=1.0)
        assert rec.min_p2p_hops == 3

    def test_min_over_multiple_holders(self):
        sim = Simulator()
        _, s = make_overlay_line(sim, 5, files_at={1: {5}, 4: {5}}, num_files=10)
        rec = s[0].query_engine.issue_query(file_id=5)
        sim.run(until=1.0)
        assert len(rec.answers) == 2
        assert rec.min_p2p_hops == 1

    def test_no_answer_when_file_absent(self):
        sim = Simulator()
        _, s = make_overlay_line(sim, 4, files_at={}, num_files=10)
        rec = s[0].query_engine.issue_query(file_id=9)
        sim.run(until=1.0)
        assert not rec.answered
        assert rec.min_p2p_hops is None

    def test_no_neighbors_no_query(self):
        sim = Simulator()
        fabric = FakeFabric(sim)
        lonely = FakeServent(0, sim, fabric, neighbors=[])
        assert lonely.query_engine.issue_query(file_id=1) is None

    def test_requirer_with_file_does_not_answer_itself(self):
        sim = Simulator()
        _, s = make_overlay_line(sim, 3, files_at={0: {4}, 2: {4}}, num_files=10)
        rec = s[0].query_engine.issue_query(file_id=4)
        sim.run(until=1.0)
        assert all(holder != 0 for holder, _, _ in rec.answers)


class TestTtl:
    def test_ttl_limits_reach(self):
        sim = Simulator()
        cfg = QueryConfig(ttl=2)
        _, s = make_overlay_line(sim, 6, files_at={4: {3}}, query_config=cfg, num_files=10)
        rec = s[0].query_engine.issue_query(file_id=3)
        sim.run(until=1.0)
        assert not rec.answered  # holder is 4 p2p hops away, TTL=2

    def test_ttl_exactly_reaches(self):
        sim = Simulator()
        cfg = QueryConfig(ttl=4)
        _, s = make_overlay_line(sim, 6, files_at={4: {3}}, query_config=cfg, num_files=10)
        rec = s[0].query_engine.issue_query(file_id=3)
        sim.run(until=1.0)
        assert rec.answered and rec.min_p2p_hops == 4


class TestForwardingRules:
    def test_forward_once_in_cyclic_overlay(self):
        # Triangle overlay: query copies must not circulate forever.
        sim = Simulator()
        fabric = FakeFabric(sim)
        s = [
            FakeServent(i, sim, fabric, neighbors=[(i + 1) % 3, (i + 2) % 3], num_files=5)
            for i in range(3)
        ]
        s[0].query_engine.issue_query(file_id=1)
        sim.run(until=5.0)
        queries_on_wire = [m for _, _, m in fabric.sent_log if isinstance(m, Query)]
        # each of nodes 1,2 forwards at most once to the one eligible peer
        assert len(queries_on_wire) <= 2 + 2

    def test_holder_forwards_even_with_file(self):
        sim = Simulator()
        _, s = make_overlay_line(sim, 4, files_at={1: {6}, 3: {6}}, num_files=10)
        rec = s[0].query_engine.issue_query(file_id=6)
        sim.run(until=1.0)
        holders = sorted(h for h, _, _ in rec.answers)
        assert holders == [1, 3]  # node 1 answered AND forwarded towards 3

    def test_not_forwarded_back_to_sender(self):
        sim = Simulator()
        fabric, s = make_overlay_line(sim, 3, files_at={}, num_files=5)
        s[0].query_engine.issue_query(file_id=1)
        sim.run(until=1.0)
        backwards = [
            (a, b) for a, b, m in fabric.sent_log if isinstance(m, Query) and (a, b) == (1, 0)
        ]
        assert backwards == []

    def test_duplicate_query_ignored(self):
        sim = Simulator()
        fabric, s = make_overlay_line(sim, 2, files_at={1: {2}}, num_files=5)
        q = Query(requirer=0, file_id=2, ttl=6)
        s[1].query_engine.on_query(0, q)
        s[1].query_engine.on_query(0, q)
        sim.run(until=1.0)
        hits = [m for _, _, m in fabric.sent_log if m.__class__.__name__ == "QueryHit"]
        assert len(hits) == 1


class TestPeriodicLoop:
    def test_records_accumulate(self):
        sim = Simulator()
        cfg = QueryConfig(warmup=1.0, response_wait=2.0, gap_min=1.0, gap_max=2.0)
        _, s = make_overlay_line(sim, 3, files_at={1: {1}}, query_config=cfg, num_files=1)
        for sv in s:
            sv.query_engine.start()
        sim.run(until=60.0)
        assert len(s[0].query_engine.records) >= 5
        assert all(r.closed for r in s[0].query_engine.records)

    def test_late_answer_discarded(self):
        sim = Simulator()
        _, s = make_overlay_line(sim, 2, files_at={1: {1}}, num_files=1)
        rec = s[0].query_engine.issue_query(file_id=1)
        sim.run(until=0.0005)  # before the answer arrives
        s[0].query_engine._close(rec)
        sim.run(until=5.0)
        assert rec.answers == []  # hit arrived after close: ignored


class TestLazyStream:
    """An engine handed a stream factory creates the stream at its first draw."""

    NAME = "p2p.node.4"

    def _draws(self, engine):
        delay = next(engine._loop())  # the first query's spread-out delay
        return delay, [engine._pick_file() for _ in range(50)]

    @pytest.mark.parametrize("target", ["uniform", "zipf"])
    def test_first_draw_matches_an_eager_stream(self, target):
        from functools import partial

        from repro.core.query import QueryEngine
        from repro.sim.rng import RngRegistry

        sim = Simulator()
        servent = FakeServent(0, sim, FakeFabric(sim), num_files=10)
        cfg = QueryConfig(target=target)
        eager = QueryEngine(servent, cfg, RngRegistry(3).stream(self.NAME))
        registry = RngRegistry(3)
        lazy = QueryEngine(servent, cfg, partial(registry.stream, self.NAME))
        assert self.NAME not in registry._streams
        assert self._draws(lazy) == self._draws(eager)
        assert lazy.rng is registry.stream(self.NAME)
