"""Tests for the small-world theory module."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import AnalyticsEngine, graph_csr
from repro.theory import (
    lattice_clustering,
    lattice_pathlength,
    nmw_pathlength,
    overlay_smallworldness,
    random_clustering,
    random_pathlength,
    rewiring_sweep,
    ring_lattice,
    smallworld_sigma,
    watts_strogatz,
    ws_rewire,
)

_engine = AnalyticsEngine()


def clustering_coefficient(g):
    return _engine.smallworld_stats(*graph_csr(g)[:2])["clustering"]


def characteristic_path_length(g):
    return _engine.smallworld_stats(*graph_csr(g)[:2])["path_length"]


class TestRingLattice:
    def test_structure(self):
        g = ring_lattice(10, 4)
        assert g.number_of_nodes() == 10
        assert all(d == 4 for _, d in g.degree)
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and not g.has_edge(0, 3)

    def test_matches_networkx_ws_at_p0(self):
        ours = ring_lattice(20, 6)
        theirs = nx.watts_strogatz_graph(20, 6, 0.0)
        assert set(ours.edges) == set(theirs.edges)

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_lattice(10, 3)  # odd k
        with pytest.raises(ValueError):
            ring_lattice(4, 4)  # k >= n
        with pytest.raises(ValueError):
            ring_lattice(4, 0)

    def test_clustering_matches_formula(self):
        for k in (4, 6, 8):
            g = ring_lattice(60, k)
            assert clustering_coefficient(g) == pytest.approx(
                lattice_clustering(k), abs=1e-9
            )


class TestRewiring:
    def test_p_zero_is_identity(self):
        g = ring_lattice(20, 4)
        h = ws_rewire(g, 0.0, np.random.default_rng(0))
        assert set(g.edges) == set(h.edges)

    def test_edge_count_preserved(self):
        g = ring_lattice(40, 6)
        h = ws_rewire(g, 0.5, np.random.default_rng(1))
        assert h.number_of_edges() == g.number_of_edges()

    def test_no_self_loops_or_duplicates(self):
        g = watts_strogatz(50, 6, 1.0, np.random.default_rng(2))
        assert all(u != v for u, v in g.edges)

    def test_input_untouched(self):
        g = ring_lattice(20, 4)
        before = set(g.edges)
        ws_rewire(g, 1.0, np.random.default_rng(3))
        assert set(g.edges) == before

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            ws_rewire(ring_lattice(10, 2), 1.5, np.random.default_rng(0))

    def test_small_world_window(self):
        # Modest rewiring collapses path length but keeps clustering.
        rng = np.random.default_rng(4)
        lattice = watts_strogatz(200, 8, 0.0, rng)
        rewired = watts_strogatz(200, 8, 0.05, rng)
        assert characteristic_path_length(rewired) < 0.7 * characteristic_path_length(
            lattice
        )
        assert clustering_coefficient(rewired) > 0.6 * clustering_coefficient(lattice)


class TestPredictions:
    def test_lattice_clustering_values(self):
        assert lattice_clustering(2) == 0.0
        assert lattice_clustering(4) == pytest.approx(0.5)
        # k -> inf limit is 3/4
        assert lattice_clustering(1000) == pytest.approx(0.75, abs=1e-2)
        with pytest.raises(ValueError):
            lattice_clustering(1)

    def test_lattice_pathlength(self):
        assert lattice_pathlength(100, 10) == 5.0
        with pytest.raises(ValueError):
            lattice_pathlength(0, 2)

    def test_random_refs(self):
        assert random_clustering(100, 5) == pytest.approx(0.05)
        assert random_pathlength(100, 10) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            random_clustering(1, 2)
        with pytest.raises(ValueError):
            random_pathlength(10, 1)

    def test_sigma_of_lattice_vs_random(self):
        rng = np.random.default_rng(5)
        small_world = watts_strogatz(300, 10, 0.05, rng)
        c = clustering_coefficient(small_world)
        l = characteristic_path_length(small_world)
        sigma = smallworld_sigma(c, l, 300, 10)
        assert sigma > 3.0  # clearly small-world
        random_g = watts_strogatz(300, 10, 1.0, rng)
        sigma_rand = smallworld_sigma(
            clustering_coefficient(random_g),
            characteristic_path_length(random_g),
            300,
            10,
        )
        assert sigma_rand < sigma

    def test_sigma_degenerate_is_nan(self):
        assert np.isnan(smallworld_sigma(0.5, float("nan"), 100, 8))
        assert np.isnan(smallworld_sigma(0.5, 2.0, 1, 8))

    def test_nmw_limits(self):
        # p=0 reduces to the lattice value.
        assert nmw_pathlength(200, 8, 0.0) == pytest.approx(
            lattice_pathlength(200, 8)
        )
        # more shortcuts -> shorter expected paths, monotonically
        values = [nmw_pathlength(200, 8, p) for p in (0.0, 0.01, 0.1, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nmw_validation(self):
        with pytest.raises(ValueError):
            nmw_pathlength(0, 8, 0.1)
        with pytest.raises(ValueError):
            nmw_pathlength(100, 8, 2.0)


class TestSweep:
    def test_sweep_shape(self):
        points = rewiring_sweep(n=100, k=6, ps=(0.0, 0.1, 1.0), reps=2, seed=0)
        assert [p.p for p in points] == [0.0, 0.1, 1.0]
        assert points[0].clustering_norm == pytest.approx(1.0)
        assert points[0].path_length_norm == pytest.approx(1.0)
        # path length collapses faster than clustering at p=0.1
        assert points[1].path_length_norm < points[1].clustering_norm

    def test_full_rewire_near_random_refs(self):
        points = rewiring_sweep(n=200, k=8, ps=(1.0,), reps=2, seed=1)
        p1 = points[0]
        assert p1.path_length == pytest.approx(random_pathlength(200, 8), rel=0.35)


class TestOverlayScore:
    def test_scores_simulated_like_graph(self):
        g = watts_strogatz(80, 6, 0.1, np.random.default_rng(6))
        out = overlay_smallworldness(g)
        assert out["n"] == 80
        assert out["sigma"] > 1.0
        assert "lattice_clustering" in out and "random_pathlength" in out

    def test_empty_graph(self):
        out = overlay_smallworldness(nx.Graph())
        assert np.isnan(out["sigma"])
