"""Vectorized graph kernels agree *exactly* with the networkx oracles.

Exactness (``==``, not ``allclose``) is the point: path-length totals
are integer sums (order-independent in float64), and clustering divides
the same integer-valued rationals the reference formulations divide, so
IEEE correct rounding makes the results bit-identical.  Random geometric
graphs over seeds 1-3, on the grid topology and the dense oracle,
fragmented and fully-down-node graphs.
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.metrics.graphfast import (
    DEFAULT_CHUNK,
    average_clustering,
    component_labels,
    local_clustering,
    path_length_sums,
    triangle_counts,
)
from repro.metrics import AnalyticsEngine
from repro.mobility import Area, Static
from repro.net import EnergyModel, World
from repro.sim import Simulator

from .helpers import DenseOracle, graph_csr

SEEDS = (1, 2, 3)

_engine = AnalyticsEngine()


def clustering_coefficient(g):
    return _engine.smallworld_stats(*graph_csr(g)[:2])["clustering"]


def characteristic_path_length(g):
    return _engine.smallworld_stats(*graph_csr(g)[:2])["path_length"]


def components(world):
    return AnalyticsEngine(registry=world.registry).components(world)


def connectivity_stats(world):
    return AnalyticsEngine(registry=world.registry).connectivity_stats(world)


def reachable_pair_fraction(world):
    return connectivity_stats(world)["reachable_pairs"]


def rgg_world(seed, topology, *, n=40, side=80.0, radio=12.0):
    """A random-geometric-graph world on the grid (``"sparse"``) or the
    dense oracle (``"dense"``)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * side
    mobility = Static(n, Area(side, side), rng, positions=pts)
    world = World(
        Simulator(),
        mobility,
        radio_range=radio,
        energy=EnergyModel(n),
    )
    if topology == "dense":
        world.topology = DenseOracle(world)
    return world


def rgg_graph(seed, *, n=40, side=80.0, radio=12.0):
    """The same geometry as a plain networkx graph."""
    pts = np.random.default_rng(seed).random((n, 2)) * side
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if float(np.sum((pts[i] - pts[j]) ** 2)) <= radio * radio:
                g.add_edge(i, j)
    return g


def nx_path_totals(g):
    """networkx's ``(total_hops, connected_ordered_pairs)`` over all pairs."""
    total = pairs = 0
    for _, lengths in nx.all_pairs_shortest_path_length(g):
        for d in lengths.values():
            if d > 0:
                total += d
                pairs += 1
    return total, pairs


# ----------------------------------------------------------------------
# raw kernels vs networkx
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
class TestKernelsVsNetworkx:
    def test_component_labels(self, seed):
        g = rgg_graph(seed)
        indptr, indices, _ = graph_csr(g)
        labels = component_labels(indptr, indices)
        for comp in nx.connected_components(g):
            want = min(comp)
            for v in comp:
                assert labels[v] == want

    def test_triangles_and_local_clustering(self, seed):
        # The default RGG (mean degree ~3) and a denser n = 60 one
        # (mean degree ~5.5, seeds 5-7).
        for g in (rgg_graph(seed), rgg_graph(seed + 4, n=60, side=70.0)):
            indptr, indices, _ = graph_csr(g)
            tri = triangle_counts(indptr, indices)
            ctri = nx.triangles(g)
            cc = nx.clustering(g)
            mine = local_clustering(indptr, indices)
            for v in g.nodes:
                assert tri[v] == ctri[v]
                assert mine[v] == cc[v]  # exact: same rational, IEEE division

    def test_average_clustering_exact(self, seed):
        g = rgg_graph(seed)
        indptr, indices, _ = graph_csr(g)
        assert average_clustering(indptr, indices) == nx.average_clustering(g)

    def test_path_length_sums_exact(self, seed):
        g = rgg_graph(seed)
        indptr, indices, _ = graph_csr(g)
        assert path_length_sums(indptr, indices) == nx_path_totals(g)

    def test_smallworld_metrics_match_oracle(self, seed):
        g = rgg_graph(seed)
        assert clustering_coefficient(g) == nx.average_clustering(g)
        cpl = characteristic_path_length(g)
        want = nx.average_shortest_path_length(
            g.subgraph(max(nx.connected_components(g), key=len))
        )
        if nx.number_connected_components(g) == 1:
            assert cpl == want
        else:
            # Fragmented: our metric averages over every connected pair,
            # so recompute the oracle the same way.
            total, pairs = nx_path_totals(g)
            assert cpl == total / pairs


def isolated_tail_graph(seed, tail=3, **kw):
    """An RGG whose ``tail`` highest-id nodes are stripped of all edges.

    Produces a CSR with *trailing empty rows* (``indptr`` entries equal
    to ``len(indices)``), the shape that once broke the ``reduceat``
    segmentation by clamping the last non-empty row's segment.
    """
    g = rgg_graph(seed, **kw)
    n = g.number_of_nodes()
    for v in range(n - tail, n):
        for u in list(g.neighbors(v)):
            g.remove_edge(v, u)
    return g


def assert_trailing_empty_rows(g, indptr, indices):
    """The shape under test: trailing CSR rows empty, and the last
    non-empty row has >= 2 neighbors (so a dropped final neighbor would
    be observable)."""
    n = len(indptr) - 1
    assert indptr[-1] == len(indices)
    last = max(v for v in range(n) if g.degree[v] > 0)
    assert last < n - 1 and g.degree[last] >= 2


def test_last_nonempty_row_keeps_all_neighbors():
    # Minimal regression: node 3 isolated -> row 2 is the last non-empty
    # CSR row and has two neighbors; a clamped reduceat start used to
    # drop neighbor 1 from its OR-reduction.
    g = nx.Graph()
    g.add_nodes_from(range(4))
    g.add_edges_from([(0, 2), (1, 2)])
    indptr, indices, _ = graph_csr(g)
    # ordered pairs among {0, 1, 2}: hops 2+1 from 0, 2+1 from 1, 1+1 from 2
    assert path_length_sums(indptr, indices) == (8, 6)


@pytest.mark.parametrize("seed", SEEDS)
class TestTrailingEmptyRows:
    """Oracle exactness when the max-id rows of the CSR are empty."""

    def test_path_length_sums_match_networkx(self, seed):
        g = isolated_tail_graph(seed)
        indptr, indices, _ = graph_csr(g)
        assert_trailing_empty_rows(g, indptr, indices)
        assert path_length_sums(indptr, indices) == nx_path_totals(g)

    def test_components_and_clustering(self, seed):
        g = isolated_tail_graph(seed)
        indptr, indices, _ = graph_csr(g)
        labels = component_labels(indptr, indices)
        for comp in nx.connected_components(g):
            want = min(comp)
            for v in comp:
                assert labels[v] == want
        assert average_clustering(indptr, indices) == nx.average_clustering(g)


def test_path_length_sums_spans_chunks():
    # More sources than one BFS chunk holds, so the sweep runs several
    # chunks -- as on any overlay above DEFAULT_CHUNK members -- over a
    # fragmented RGG whose max-id rows are empty.
    g = isolated_tail_graph(4, n=300, side=150.0)
    indptr, indices, _ = graph_csr(g)
    assert g.number_of_nodes() > DEFAULT_CHUNK
    assert nx.number_connected_components(g) > 1
    assert_trailing_empty_rows(g, indptr, indices)
    assert path_length_sums(indptr, indices) == nx_path_totals(g)


# ----------------------------------------------------------------------
# component-bounded chunks: each chunk sweeps only its components' rows
# ----------------------------------------------------------------------
def component_graph(sizes, *, isolated=0, seed=0, shuffle=True):
    """Connected components of the given sizes (a random spanning tree
    plus a few chords each) and ``isolated`` edgeless nodes, on ids
    ``0 .. n-1``; ``shuffle`` scatters the ids so components interleave,
    else each component holds a contiguous id block in ``sizes`` order."""
    rng = np.random.default_rng(seed)
    n = sum(sizes) + isolated
    ids = rng.permutation(n) if shuffle else np.arange(n)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    at = 0
    for size in sizes:
        block = [int(v) for v in ids[at : at + size]]
        at += size
        for i in range(1, size):
            g.add_edge(block[i], block[int(rng.integers(i))])
        for _ in range(size // 3):
            u, v = rng.choice(size, 2, replace=False)
            g.add_edge(block[u], block[v])
    return g


def assert_path_totals_match(g):
    indptr, indices, nodes = graph_csr(g)
    assert nodes == list(range(len(nodes)))
    assert path_length_sums(indptr, indices) == nx_path_totals(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_isolated_nodes_interleaved_with_members(seed):
    # both a one-chunk graph and one whose members need several chunks
    for sizes, isolated in (([5, 3, 9], 20), ([7] * 60, 300)):
        g = component_graph(sizes, isolated=isolated, seed=seed)
        members = [v for v in g if g.degree[v]]
        between = [v for v in nx.isolates(g) if min(members) < v < max(members)]
        assert between  # isolated ids fall among the members' ids
        assert_path_totals_match(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_many_small_components_with_interleaved_ids(seed):
    rng = np.random.default_rng(seed)
    sizes = [int(k) for k in rng.integers(2, 19, size=150)]
    g = component_graph(sizes, isolated=200, seed=seed)
    assert sum(sizes) > 4 * DEFAULT_CHUNK
    assert nx.number_connected_components(g) == 150 + 200
    assert_path_totals_match(g)


def test_component_straddles_a_chunk_boundary():
    # contiguous id blocks, no isolated node: source order is id order,
    # so the third component (ids 200..299) spans the chunk boundary
    g = component_graph([100, 100, 100, 60, 70, 80], shuffle=False, seed=5)
    labels = component_labels(*graph_csr(g)[:2])
    assert labels[DEFAULT_CHUNK - 1] == labels[DEFAULT_CHUNK] == 200
    assert_path_totals_match(g)


def test_component_larger_than_a_chunk():
    # one 700-node component (three chunks of sources share its span)
    # among small ones and isolated nodes, ids interleaved
    g = component_graph([700, 4, 12, 2, 30], isolated=50, seed=11)
    assert max(len(c) for c in nx.connected_components(g)) > 2 * DEFAULT_CHUNK
    assert_path_totals_match(g)


def test_metro_overlay_matches_networkx():
    # the run fingerprint's metro-n1000-noqueries overlay: 750 members,
    # mostly isolated or in small components after 5 s
    from repro.scenarios import ScenarioConfig, build_scenario

    from .helpers import csr_graph
    from .test_run_fingerprint import CONFIGS

    simulation = build_scenario(
        ScenarioConfig(seed=1, **CONFIGS["metro-n1000-noqueries"])
    )
    simulation.run()
    indptr, indices = simulation.overlay.csr()
    g = csr_graph(indptr, indices)
    assert g.number_of_nodes() > DEFAULT_CHUNK
    assert nx.number_of_isolates(g) > 0
    assert nx.number_connected_components(g) > nx.number_of_isolates(g) + 10
    assert path_length_sums(indptr, indices) == nx_path_totals(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_chunk_sweeps_the_csr_as_it_stands(seed, monkeypatch):
    # At most DEFAULT_CHUNK members make one chunk that spans every row
    # whatever the numbering: no renumbering, with empty rows first,
    # among the members and last.
    import repro.metrics.graphfast as gf

    calls = []
    renumbered = gf._renumbered

    def spy(*args):
        calls.append(len(args[2]))
        return renumbered(*args)

    monkeypatch.setattr(gf, "_renumbered", spy)
    head = nx.path_graph(6)
    head.remove_edges_from(list(head.edges(0)) + list(head.edges(5)))
    graphs = [
        head,  # rows 0 and 5 empty
        isolated_tail_graph(seed),
        component_graph([5, 3, 9], isolated=33, seed=seed),  # 50 nodes
        component_graph([64] * 4, seed=seed),  # 256 members
    ]
    for g in graphs:
        assert g.number_of_nodes() <= DEFAULT_CHUNK
        assert_path_totals_match(g)
    assert calls == []
    # one member more than a chunk holds: renumbered, once
    assert_path_totals_match(component_graph([DEFAULT_CHUNK + 1], seed=seed))
    assert calls == [DEFAULT_CHUNK + 1]


def test_path_length_sums_charges_no_component_run():
    from repro.obs.registry import Registry

    g = component_graph([7] * 60, isolated=30, seed=2)
    reg = Registry()
    path_length_sums(*graph_csr(g)[:2], registry=reg)
    assert reg.value("graphfast.bfs_sources") == g.number_of_nodes()
    with pytest.raises(KeyError):
        reg.value("graphfast.component_runs")


def test_popcount_fallback_matches_bitwise_count():
    import repro.metrics.graphfast as gf

    rng = np.random.default_rng(7)
    a = rng.integers(0, np.iinfo(np.uint64).max, size=(13, 3), dtype=np.uint64)
    want = sum(bin(int(x)).count("1") for x in a.ravel())
    assert gf._popcount(a) == want
    # The pre-NumPy-2.0 formulation must agree with the ufunc path.
    assert int(np.unpackbits(np.ascontiguousarray(a).view(np.uint8)).sum()) == want


def test_empty_and_trivial_graphs():
    g = nx.Graph()
    indptr, indices, _ = graph_csr(g)
    assert average_clustering(indptr, indices) == 0.0
    assert path_length_sums(indptr, indices) == (0, 0)
    assert math.isnan(characteristic_path_length(g))
    g.add_nodes_from(range(3))  # edgeless
    indptr, indices, _ = graph_csr(g)
    assert list(component_labels(indptr, indices)) == [0, 1, 2]
    assert path_length_sums(indptr, indices) == (0, 0)


# ----------------------------------------------------------------------
# world-level analytics vs the per-source BFS reference semantics
# ----------------------------------------------------------------------
def reference_components(world):
    """The historical per-source ``hops_from`` sweep, verbatim."""
    n = world.n
    seen = np.zeros(n, dtype=bool)
    out = []
    for start in range(n):
        if seen[start]:
            continue
        dist = world.topology.hops_from(start)
        comp = np.flatnonzero(dist >= 0)
        seen[comp] = True
        out.append(comp)
    out.sort(key=len, reverse=True)
    return out


@pytest.mark.parametrize("topology", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
class TestWorldAnalytics:
    def test_components_match_reference(self, seed, topology):
        world = rgg_world(seed, topology)
        got = components(world)
        want = reference_components(world)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_reachable_fraction_exact(self, seed, topology):
        world = rgg_world(seed, topology)
        comps = reference_components(world)
        n = world.n
        want = sum(len(c) * (len(c) - 1) for c in comps) / (n * (n - 1))
        assert reachable_pair_fraction(world) == want

    def test_fragmented_world(self, seed, topology):
        # Huge area: mostly isolated nodes and tiny islands.
        world = rgg_world(seed, topology, n=30, side=400.0)
        got = components(world)
        want = reference_components(world)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        stats = connectivity_stats(world)
        assert stats["components"] == len(want)

    def test_down_nodes_contribute_empty_components(self, seed, topology):
        world = rgg_world(seed, topology)
        rng = np.random.default_rng(seed)
        for i in rng.choice(world.n, size=10, replace=False):
            world.set_down(int(i))
        got = components(world)
        want = reference_components(world)
        assert [len(c) for c in got] == [len(c) for c in want]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert reachable_pair_fraction(world) == (
            sum(len(c) * (len(c) - 1) for c in want) / (world.n * (world.n - 1))
        )

    def test_down_nodes_at_max_ids(self, seed, topology):
        # Downing the highest ids empties the trailing CSR rows on the
        # analytics path -- the reduceat-segmentation regression shape.
        world = rgg_world(seed, topology)
        for i in range(world.n - 4, world.n):
            world.set_down(i)
        got = components(world)
        want = reference_components(world)
        assert [len(c) for c in got] == [len(c) for c in want]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert reachable_pair_fraction(world) == (
            sum(len(c) * (len(c) - 1) for c in want) / (world.n * (world.n - 1))
        )

    def test_all_nodes_down(self, seed, topology):
        world = rgg_world(seed, topology, n=8)
        for i in range(world.n):
            world.set_down(i)
        got = components(world)
        assert len(got) == 8 and all(len(c) == 0 for c in got)
        assert reachable_pair_fraction(world) == 0.0
        stats = connectivity_stats(world)
        assert stats["largest_component"] == 0.0
        assert stats["isolated"] == 0.0


def test_smallworld_stats_records_kernel_counters():
    from repro.obs.registry import Registry

    g = rgg_graph(1)
    reg = Registry()
    AnalyticsEngine(registry=reg).smallworld_stats(*graph_csr(g)[:2])
    assert reg.value("graphfast.bfs_sources") == g.number_of_nodes()
    assert reg.value("graphfast.triangle_runs") == 1.0
