"""Tests for physical-connectivity analytics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.analytics import AnalyticsEngine

from .helpers import expected_mean_degree, line_positions, make_world


def components(world):
    return AnalyticsEngine(registry=world.registry).components(world)


def connectivity_stats(world):
    return AnalyticsEngine(registry=world.registry).connectivity_stats(world)


def reachable_pair_fraction(world):
    return connectivity_stats(world)["reachable_pairs"]


class TestComponents:
    def test_single_component_line(self):
        _, world, _ = make_world(line_positions(5, spacing=8.0))
        comps = components(world)
        assert len(comps) == 1 and len(comps[0]) == 5

    def test_two_islands(self):
        _, world, _ = make_world([[0, 0], [8, 0], [500, 500], [508, 500]])
        comps = components(world)
        assert [len(c) for c in comps] == [2, 2]

    def test_isolated_nodes(self):
        _, world, _ = make_world([[0, 0], [300, 300], [600, 600]])
        stats = connectivity_stats(world)
        assert stats["components"] == 3
        assert stats["isolated"] == 3
        assert stats["largest_component"] == 1

    def test_largest_first(self):
        _, world, _ = make_world(
            line_positions(4, spacing=8.0) + [[700, 700], [708, 700]]
        )
        comps = components(world)
        assert len(comps[0]) == 4 and len(comps[1]) == 2

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_components_partition_nodes(self, seed):
        pts = np.random.default_rng(seed).random((15, 2)) * 60
        _, world, _ = make_world(pts, radio_range=12)
        comps = components(world)
        all_nodes = sorted(int(i) for c in comps for i in c)
        assert all_nodes == list(range(15))


class TestReachablePairs:
    def test_fully_connected(self):
        _, world, _ = make_world(line_positions(4, spacing=8.0))
        assert reachable_pair_fraction(world) == 1.0

    def test_fully_disconnected(self):
        _, world, _ = make_world([[0, 0], [300, 300], [600, 600]])
        assert reachable_pair_fraction(world) == 0.0

    def test_half_split(self):
        _, world, _ = make_world([[0, 0], [8, 0], [500, 500], [508, 500]])
        # 2 components of 2: 4 reachable ordered pairs of 12 total
        assert reachable_pair_fraction(world) == pytest.approx(4 / 12)


class TestNoCachePollution:
    """Analytics must observe the run, not perturb its caches.

    ``connectivity_stats`` used to call ``world.hops_from`` once per
    start node, evicting the protocol-hot entries (servent connection
    maintenance, routing oracle) from the topology's LRU distance
    cache.  It now runs on the uncached CSR kernel path.
    """

    def test_connectivity_stats_leaves_dist_cache_alone(self):
        pts = np.random.default_rng(7).random((30, 2)) * 80
        _, world, _ = make_world(pts, radio_range=12)
        # Protocol-hot state: a few memoized BFS vectors.
        for src in (0, 5, 9):
            world.topology.hops_from(src)
        cached_before = set(world.topology._dist)
        hits_before = world.registry.value("topology.dist_cache_hits")

        connectivity_stats(world)
        components(world)
        reachable_pair_fraction(world)

        # Neither the cache contents nor the hit counter moved.
        assert set(world.topology._dist) == cached_before
        assert world.registry.value("topology.dist_cache_hits") == hits_before
        # The hot entries are still hits.
        world.topology.hops_from(5)
        assert world.registry.value("topology.dist_cache_hits") == hits_before + 1


class TestExpectedDegree:
    def test_paper_scenarios(self):
        # 50 nodes, 100x100, r=10: ~1.54 expected neighbours -- sparse!
        assert expected_mean_degree(50, 100, 100, 10) == pytest.approx(1.539, abs=0.01)
        # 150 nodes: ~4.68
        assert expected_mean_degree(150, 100, 100, 10) == pytest.approx(4.68, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_mean_degree(0, 100, 100, 10)
        with pytest.raises(ValueError):
            expected_mean_degree(10, 100, 100, 0)

    def test_approximates_measured_degree(self):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 2)) * 100
        _, world, _ = make_world(pts, radio_range=10)
        measured = connectivity_stats(world)["mean_degree"]
        predicted = expected_mean_degree(200, 100, 100, 10)
        # edge effects push measured below predicted, but same ballpark
        assert 0.5 * predicted < measured <= predicted * 1.1
