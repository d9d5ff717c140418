"""Tests for metrics: collector, small-world stats, aggregation."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import QueryRecord
from repro.metrics import (
    AnalyticsEngine,
    MetricsCollector,
    mean_ci,
    per_file_stats,
    random_graph_pathlength,
    regular_graph_pathlength,
    sorted_curve_mean,
)

from .helpers import graph_csr

_engine = AnalyticsEngine()


def smallworld_stats(g):
    return _engine.smallworld_stats(*graph_csr(g)[:2])


def clustering_coefficient(g):
    return smallworld_stats(g)["clustering"]


def characteristic_path_length(g):
    return smallworld_stats(g)["path_length"]


class TestCollector:
    def test_count_and_total(self):
        m = MetricsCollector(5)
        m.count_received(0, "ping")
        m.count_received(0, "ping")
        m.count_received(3, "query")
        assert m.total("ping") == 2
        assert m.family_counts("ping")[0] == 2
        assert m.family_counts("query")[3] == 1

    def test_unknown_family_folds_to_other(self):
        m = MetricsCollector(2)
        m.count_received(1, "mystery")
        assert m.total("other") == 1

    def test_sorted_counts_members_only(self):
        m = MetricsCollector(6)
        for nid, k in [(0, 5), (2, 9), (4, 1)]:
            for _ in range(k):
                m.count_received(nid, "connect")
        curve = m.sorted_counts("connect", members=[0, 2, 4])
        assert list(curve) == [9, 5, 1]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MetricsCollector(0)


class TestSmallWorld:
    def test_clustering_matches_networkx(self):
        g = nx.erdos_renyi_graph(30, 0.2, seed=42)
        ours = clustering_coefficient(g)
        theirs = nx.average_clustering(g)
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_clustering_triangle(self):
        assert clustering_coefficient(nx.complete_graph(3)) == 1.0

    def test_clustering_star_is_zero(self):
        assert clustering_coefficient(nx.star_graph(5)) == 0.0

    def test_clustering_empty_graph(self):
        assert clustering_coefficient(nx.Graph()) == 0.0

    def test_path_length_line(self):
        g = nx.path_graph(4)  # distances: 1*6? pairs (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
        expected = (1 + 2 + 3 + 1 + 2 + 1) / 6
        assert characteristic_path_length(g) == pytest.approx(expected)

    def test_path_length_ignores_disconnected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        assert characteristic_path_length(g) == 1.0

    def test_path_length_no_edges_is_nan(self):
        g = nx.empty_graph(3)
        assert np.isnan(characteristic_path_length(g))

    def test_reference_formulas(self):
        assert regular_graph_pathlength(100, 5) == 10.0
        assert random_graph_pathlength(100, 10) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            regular_graph_pathlength(0, 5)
        with pytest.raises(ValueError):
            random_graph_pathlength(10, 1)

    def test_smallworld_effect_detectable(self):
        # Watts-Strogatz rewiring: clustering stays high-ish while path
        # length drops -- exactly what the Random algorithm aims for.
        regular = nx.watts_strogatz_graph(200, 8, 0.0, seed=1)
        rewired = nx.watts_strogatz_graph(200, 8, 0.1, seed=1)
        assert characteristic_path_length(rewired) < 0.6 * characteristic_path_length(
            regular
        )
        assert clustering_coefficient(rewired) > 0.5 * clustering_coefficient(regular)

    def test_stats_bundle(self):
        g = nx.watts_strogatz_graph(50, 4, 0.1, seed=3)
        s = smallworld_stats(g)
        assert 0 <= s["clustering"] <= 1
        assert s["n"] == 50
        assert "regular_ref" in s and "random_ref" in s

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_clustering_always_in_unit_interval(self, seed):
        g = nx.gnp_random_graph(20, 0.3, seed=seed)
        assert 0.0 <= clustering_coefficient(g) <= 1.0


def rec(fid, answers=(), requirer=0):
    r = QueryRecord(requirer=requirer, file_id=fid, qid=0, issued_at=0.0)
    r.answers = list(answers)
    r.closed = True
    return r


class TestPerFileStats:
    def test_basic_aggregation(self):
        records = [
            rec(1, [(5, 1, 2), (6, 2, 3)]),
            rec(1, []),
            rec(2, [(7, 3, 4)]),
        ]
        stats = per_file_stats(records, num_files=3)
        assert stats[0].queries == 2
        assert stats[0].answered == 1
        assert stats[0].avg_answers == 1.0  # (2 + 0) / 2
        assert stats[0].avg_min_p2p_hops == 1.0
        assert stats[1].avg_min_p2p_hops == 3.0
        assert stats[2].queries == 0

    def test_answer_rate(self):
        stats = per_file_stats([rec(1, [(5, 1, 1)]), rec(1, [])], num_files=1)
        assert stats[0].answered / stats[0].queries == 0.5

    def test_unanswered_distance_is_nan(self):
        stats = per_file_stats([rec(1, [])], num_files=1)
        assert np.isnan(stats[0].avg_min_p2p_hops)

    def test_negative_adhoc_excluded(self):
        stats = per_file_stats([rec(1, [(5, 2, -1)])], num_files=1)
        assert np.isnan(stats[0].avg_min_adhoc_hops)
        assert stats[0].avg_min_p2p_hops == 2.0


class TestMeanCi:
    def test_scalar_samples(self):
        out = mean_ci([1.0, 2.0, 3.0])
        assert out["mean"] == pytest.approx(2.0)
        assert out["std"] == pytest.approx(1.0)
        assert out["ci"] > 0

    def test_array_samples(self):
        out = mean_ci([np.array([1.0, 10.0]), np.array([3.0, 30.0])])
        assert out["mean"] == pytest.approx([2.0, 20.0])

    def test_nan_ignored(self):
        out = mean_ci([np.array([1.0, np.nan]), np.array([3.0, 5.0])])
        assert out["mean"][1] == pytest.approx(5.0)
        assert out["n"][1] == 1

    def test_single_sample_zero_ci(self):
        out = mean_ci([np.array([4.0])])
        assert out["ci"][0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_unsupported_confidence(self):
        with pytest.raises(ValueError):
            mean_ci([1.0], confidence=0.7)


class TestSortedCurveMean:
    def test_equal_lengths(self):
        out = sorted_curve_mean([np.array([4.0, 2.0]), np.array([2.0, 0.0])])
        assert list(out) == [3.0, 1.0]

    def test_ragged_padded_with_zeros(self):
        out = sorted_curve_mean([np.array([4.0, 2.0]), np.array([2.0])])
        assert list(out) == [3.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sorted_curve_mean([])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=1000), max_size=12),
            min_size=1,
            max_size=5,
        )
    )
    def test_ragged_sorted_curves_stay_sorted_decreasing(self, counts):
        # repetitions' sorted, non-negative per-node counts (ragged under
        # churn) average to a curve that is still sorted decreasing, so
        # the figures 7-12 curves need no runtime check
        curves = [np.array(sorted(c, reverse=True), dtype=float) for c in counts]
        out = sorted_curve_mean(curves)
        assert len(out) == max(len(c) for c in curves)
        assert (np.diff(out) <= 1e-9).all()
