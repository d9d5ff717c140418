"""Pins the small-world theory's graphs and sweep floats.

``ring_lattice`` and ``watts_strogatz`` must give, for every small
shape, exactly the graph of the networkx formulation below: a ring
lattice as an ``nx.Graph`` and the classic rewiring loop over its edge
view, drawing ``rng.random()`` per edge and ``rng.integers`` per
rewired edge.  The generator must be left where the reference leaves
it, and the full sweep of ``benchmarks/test_theory_smallworld.py`` must
print the same floats.  The graph type the functions return does not
matter here: both a CSR pair and a networkx graph are read.
"""

import networkx as nx
import numpy as np
import pytest

from repro.theory import rewiring_sweep, watts_strogatz

from .helpers import ring_lattice

SHAPES = [(n, k) for n in range(3, 14) for k in range(2, n, 2)]
PS = (0.0, 0.3, 1.0)
SEEDS = (0, 1, 2)

SWEEP_REPR = (
    "[SweepPoint(p=0.0, clustering=0.6428571428571415, path_length=12.93969849246231,"
    " clustering_norm=1.0, path_length_norm=1.0),"
    " SweepPoint(p=0.01, clustering=0.6251587301587294, path_length=7.844095477386935,"
    " clustering_norm=0.97246913580247, path_length_norm=0.6062038834951456),"
    " SweepPoint(p=0.05, clustering=0.5555238095238095, path_length=4.213492462311558,"
    " clustering_norm=0.86414814814815, path_length_norm=0.3256252427184467),"
    " SweepPoint(p=0.1, clustering=0.47697222222222224, path_length=3.659748743718593,"
    " clustering_norm=0.7419567901234584, path_length_norm=0.2828310679611651),"
    " SweepPoint(p=1.0, clustering=0.03777398296148293, path_length=2.756532663316583,"
    " clustering_norm=0.0587595290511958, path_length_norm=0.21302912621359224)]"
)


def _nx_lattice(n, k):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(1, k // 2 + 1):
            g.add_edge(i, (i + j) % n)
    return g


def _nx_watts_strogatz(n, k, p, rng):
    g = _nx_lattice(n, k)
    out = g.copy()
    for u, v in list(g.edges):
        if rng.random() >= p:
            continue
        candidates = [w for w in range(n) if w != u and not out.has_edge(u, w)]
        if not candidates:
            continue
        w = candidates[int(rng.integers(len(candidates)))]
        out.remove_edge(u, v)
        out.add_edge(u, w)
    return out


def _rows(graph):
    """Ascending neighbour list per node, from a CSR pair or a networkx graph."""
    if isinstance(graph, tuple):
        indptr, indices = graph
        return [
            [int(v) for v in indices[indptr[u] : indptr[u + 1]]]
            for u in range(len(indptr) - 1)
        ]
    assert list(graph.nodes) == list(range(graph.number_of_nodes()))
    return [sorted(graph.adj[u]) for u in graph.nodes]


@pytest.mark.parametrize("n,k", SHAPES, ids=[f"n{n}k{k}" for n, k in SHAPES])
def test_graphs_equal_the_networkx_reference(n, k):
    assert _rows(ring_lattice(n, k)) == _rows(_nx_lattice(n, k))
    for p in PS:
        for seed in SEEDS:
            ours_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            ours = watts_strogatz(n, k, p, ours_rng)
            ref = _nx_watts_strogatz(n, k, p, ref_rng)
            assert _rows(ours) == _rows(ref), (n, k, p, seed)
            assert ours_rng.random() == ref_rng.random(), (n, k, p, seed)


def test_sweep_floats_pinned():
    points = rewiring_sweep(n=200, k=8, ps=(0.0, 0.01, 0.05, 0.1, 1.0), reps=2, seed=7)
    assert repr(points) == SWEEP_REPR
