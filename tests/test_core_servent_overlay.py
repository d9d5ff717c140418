"""Tests for the servent dispatch surface and the overlay manager."""

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    Connection,
    HybridAlgorithm,
    P2pConfig,
    Ping,
    Pong,
    Query,
    QueryHit,
)

from .overlay_helpers import build_overlay


class TestP2pConfigValidation:
    def test_defaults_valid(self):
        P2pConfig()

    def test_bad_max_connections(self):
        with pytest.raises(ValueError):
            P2pConfig(max_connections=0)

    def test_bad_nhops(self):
        with pytest.raises(ValueError):
            P2pConfig(nhops_initial=0)
        with pytest.raises(ValueError):
            P2pConfig(nhops_initial=8, max_nhops=6)

    def test_bad_timer(self):
        with pytest.raises(ValueError):
            P2pConfig(timer_initial=0)
        with pytest.raises(ValueError):
            P2pConfig(timer_initial=20.0, max_timer=10.0)

    def test_bad_slaves(self):
        with pytest.raises(ValueError):
            P2pConfig(max_slaves=0)

    def test_ping_deadline(self):
        cfg = P2pConfig(ping_interval=10.0, ping_deadline_factor=2.5)
        assert cfg.ping_deadline == 25.0


class TestServentDispatch:
    def test_message_families_counted(self):
        pts = [[10, 10], [15, 10]]
        sim, _, overlay, metrics = build_overlay(pts, algorithm="regular")
        s0 = overlay.servents[0]
        s0.on_p2p(1, Ping(sender=1), hops=1)
        s0.on_p2p(1, Pong(sender=1), hops=1)
        s0.on_p2p(1, Query(requirer=1, file_id=1, ttl=3), hops=1)
        s0.on_p2p(1, QueryHit(holder=1, file_id=1, qid=999, p2p_hops=1), hops=1)
        assert metrics.family_counts("ping")[0] == 2
        assert metrics.family_counts("query")[0] == 2

    def test_own_flood_ignored(self):
        pts = [[10, 10], [15, 10]]
        sim, _, overlay, metrics = build_overlay(pts, algorithm="regular")
        s0 = overlay.servents[0]
        from repro.core import Discover

        s0._on_flood(0, Discover(seeker=0), hops=1, via=1)  # own origin: ignored
        assert metrics.family_counts("connect")[0] == 0

    def test_duplicate_flood_copies_counted(self):
        pts = [[10, 10], [15, 10]]
        sim, _, overlay, metrics = build_overlay(pts, algorithm="regular")
        s0 = overlay.servents[0]
        from repro.core import Discover

        s0._on_flood_duplicate(1, Discover(seeker=1), via=1)
        assert metrics.family_counts("connect")[0] == 1

    def test_double_algorithm_attach_rejected(self):
        pts = [[10, 10], [15, 10]]
        _, _, overlay, _ = build_overlay(pts, algorithm="regular")
        s0 = overlay.servents[0]
        with pytest.raises(RuntimeError):
            s0.attach_algorithm(s0.algorithm)

    def test_adhoc_distance_unreachable_is_minus_one(self):
        pts = [[10, 10], [900, 900]]
        _, _, overlay, _ = build_overlay(pts, algorithm="regular")
        assert overlay.servents[0].adhoc_distance(1) == -1


class TestOverlayManager:
    def test_members_validated(self):
        with pytest.raises(ValueError):
            build_overlay([[10, 10], [15, 10]], members=[0, 7])
        with pytest.raises(ValueError):
            build_overlay([[10, 10], [15, 10]], members=[])

    def test_graph_snapshot_symmetric_edges(self):
        pts = [[10, 10], [15, 10], [10, 15]]
        sim, _, overlay, _ = build_overlay(pts, algorithm="regular")
        overlay.start(queries=False)
        sim.run(until=120.0)
        g = overlay.graph()
        assert isinstance(g, nx.Graph)
        assert set(g.nodes) == {0, 1, 2}
        assert g.number_of_edges() >= 2

    def test_graph_includes_hybrid_slaves(self):
        pts = [[10, 10], [15, 10], [10, 15]]
        sim, _, overlay, _ = build_overlay(
            pts, algorithm="hybrid", qualifiers={0: 0.9, 1: 0.1, 2: 0.2}
        )
        overlay.start(queries=False)
        sim.run(until=300.0)
        g = overlay.graph()
        assert g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_connection_counts(self):
        pts = [[10, 10], [15, 10]]
        sim, _, overlay, _ = build_overlay(pts, algorithm="regular")
        overlay.start(queries=False)
        sim.run(until=60.0)
        counts = overlay.connection_counts()
        assert counts[0] == 1 and counts[1] == 1

    def test_query_records_harvest(self):
        pts = [[10, 10], [15, 10], [10, 15]]
        sim, _, overlay, _ = build_overlay(pts, algorithm="regular")
        overlay.start(queries=True)
        sim.run(until=400.0)
        records = overlay.query_records()
        assert records, "no queries recorded"
        assert all(r.closed for r in records)

    def test_default_qualifiers_generated(self):
        pts = [[10, 10], [15, 10]]
        _, _, overlay, _ = build_overlay(pts, algorithm="hybrid")
        assert set(overlay.qualifiers) == {0, 1}
        assert all(0.0 <= q <= 1.0 for q in overlay.qualifiers.values())

    def test_stop_halts_activity(self):
        pts = [[10, 10], [15, 10]]
        sim, _, overlay, metrics = build_overlay(pts, algorithm="regular")
        overlay.start(queries=False)
        sim.run(until=60.0)
        overlay.stop()
        before = metrics.total("connect") + metrics.total("ping")
        sim.run(until=400.0)
        after = metrics.total("connect") + metrics.total("ping")
        # in-flight deliveries may land right after stop; nothing more.
        assert after - before <= 4
