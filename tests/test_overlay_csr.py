"""The overlay's own CSR and the small-world harvest that reads it.

``OverlayNetwork.csr()`` must carry exactly the edge set of a networkx
graph built from the servents' references (rows in ``members`` order),
``AnalyticsEngine.smallworld_stats`` fed that CSR must give the dict the
graph-based harvest gave, and no ``src/repro`` module may import
networkx, which the tests keep as an independent oracle.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.core import Connection, HybridAlgorithm
from repro.metrics import (
    AnalyticsEngine,
    average_clustering,
    path_length_sums,
    random_graph_pathlength,
    regular_graph_pathlength,
)
from repro.scenarios import ScenarioConfig, build_scenario
from repro.scenarios.runner import harvest

from .helpers import graph_csr

ALGORITHMS = ("basic", "regular", "random", "hybrid")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _reference_graph(overlay):
    """The overlay as a networkx graph: every member a node, an edge
    wherever either endpoint holds a connection or a Hybrid slave link."""
    g = nx.Graph()
    g.add_nodes_from(overlay.members)
    for servent in overlay.servents.values():
        g.add_edges_from((servent.nid, conn.peer) for conn in servent.connections)
        if isinstance(servent.algorithm, HybridAlgorithm):
            g.add_edges_from(
                (servent.nid, conn.peer) for conn in servent.algorithm.slaves
            )
    return g


def _graph_stats(g):
    """The graph-based harvest: networkx degrees, ``graph_csr``, same kernels."""
    n = g.number_of_nodes()
    degrees = [d for _, d in g.degree]
    k = float(np.mean(degrees)) if degrees else 0.0
    indptr, indices, _ = graph_csr(g)
    total, pairs = path_length_sums(indptr, indices)
    stats = {
        "n": float(n),
        "mean_degree": k,
        "clustering": float(average_clustering(indptr, indices)),
        "path_length": total / pairs if pairs else float("nan"),
    }
    if n > 1 and k > 1:
        stats["regular_ref"] = regular_graph_pathlength(n, max(int(round(k)), 1))
        stats["random_ref"] = random_graph_pathlength(n, max(int(round(k)), 2))
    return stats


def _same_stats(a, b):
    """Dict equality with NaN == NaN (exact floats otherwise)."""
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], float) and math.isnan(a[key]):
            assert math.isnan(b[key]), key
        else:
            assert a[key] == b[key], key


@pytest.fixture(scope="module", params=ALGORITHMS)
def finished(request):
    simulation = build_scenario(
        ScenarioConfig(
            num_nodes=40,
            duration=300.0,
            algorithm=request.param,
            routing="oracle",
            seed=3,
        )
    )
    # a member that is down all run never connects: one empty row
    simulation.world.set_down(simulation.members[0])
    simulation.run()
    return simulation


class TestOverlayCsr:
    def test_equals_graph_csr_of_graph(self, finished):
        overlay = finished.overlay
        indptr, indices = overlay.csr()
        ref_indptr, ref_indices, nodes = graph_csr(_reference_graph(overlay))
        assert nodes == overlay.members
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(indices, ref_indices)
        assert indptr.dtype == indices.dtype == np.int64
        assert len(indices) > 0
        # the down member is isolated, and its row is empty
        assert indptr[1] == indptr[0]
        if overlay.algorithm_name == "hybrid":
            assert any(
                s.algorithm.slaves
                for s in overlay.servents.values()
                if isinstance(s.algorithm, HybridAlgorithm)
            )

    def test_rows_ascending(self, finished):
        indptr, indices = finished.overlay.csr()
        for i in range(len(indptr) - 1):
            row = indices[indptr[i] : indptr[i + 1]]
            assert np.all(np.diff(row) > 0)
            assert i not in row

    def test_arrays_read_only(self, finished):
        indptr, indices = finished.overlay.csr()
        with pytest.raises(ValueError):
            indptr[0] = 1
        with pytest.raises(ValueError):
            indices[:1] = 0

    def test_union_of_one_sided_mutual_and_slave_references(self):
        simulation = build_scenario(
            ScenarioConfig(num_nodes=10, duration=1.0, algorithm="hybrid")
        )
        overlay = simulation.overlay
        m = overlay.members
        servents = [overlay.servents[nid] for nid in m[:5]]
        servents[0].connections.add(Connection(m[1]))  # one-sided
        servents[2].connections.add(Connection(m[3], random=True))  # mutual ...
        servents[3].connections.add(Connection(m[2], random=True))
        servents[2].connections.add(Connection(m[4]))  # ... and a slave twice
        servents[2].algorithm.slaves.add(Connection(m[4]))
        indptr, indices = overlay.csr()
        ref_indptr, ref_indices, _ = graph_csr(_reference_graph(overlay))
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(indices, ref_indices)
        assert list(indices[indptr[0] : indptr[1]]) == [1]
        assert list(indices[indptr[1] : indptr[2]]) == [0]
        assert list(indices[indptr[2] : indptr[3]]) == [3, 4]
        assert list(indices[indptr[4] : indptr[5]]) == [2]
        assert indptr[-1] == indptr[5]  # every later member isolated


class TestSmallworldStatsFromCsr:
    def test_equals_graph_based_dict(self, finished):
        stats = AnalyticsEngine().smallworld_stats(*finished.overlay.csr())
        _same_stats(stats, _graph_stats(_reference_graph(finished.overlay)))

    def test_harvest_equals_graph_based_dict(self, finished):
        _same_stats(
            harvest(finished).overlay_stats,
            _graph_stats(_reference_graph(finished.overlay)),
        )

    @pytest.mark.parametrize(
        "g",
        [
            nx.empty_graph(1),
            nx.empty_graph(4),
            nx.path_graph(2),
            nx.complete_graph(5),
            nx.watts_strogatz_graph(30, 4, 0.2, seed=1),
        ],
        ids=["one", "edgeless", "pair", "k5", "ws30"],
    )
    def test_graph_input_through_graph_csr(self, g):
        stats = AnalyticsEngine().smallworld_stats(*graph_csr(g)[:2])
        _same_stats(stats, _graph_stats(g))

    def test_empty_csr(self):
        empty = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        stats = AnalyticsEngine().smallworld_stats(*empty)
        assert stats["n"] == 0.0 and stats["mean_degree"] == 0.0
        assert stats["clustering"] == 0.0 and math.isnan(stats["path_length"])


# ----------------------------------------------------------------------
# degenerate worlds: each harvests to an edgeless overlay
# ----------------------------------------------------------------------
def _all_down(simulation):
    for nid in range(simulation.world.n):
        simulation.world.set_down(nid)


DEGENERATE = {
    "two_nodes": (dict(num_nodes=2, duration=120.0), None, 2),
    "single_member_regular": (
        dict(num_nodes=5, p2p_fraction=0.2, algorithm="regular", duration=120.0),
        None,
        1,
    ),
    "single_member_hybrid": (
        dict(num_nodes=5, p2p_fraction=0.2, algorithm="hybrid", duration=120.0),
        None,
        1,
    ),
    "everyone_down": (dict(num_nodes=20, duration=120.0), _all_down, 15),
    "shorter_than_snapshot": (dict(num_nodes=20, duration=0.1), None, 15),
}


@pytest.mark.parametrize("world", sorted(DEGENERATE))
def test_degenerate_world_harvest_pinned(world):
    overrides, prepare, members = DEGENERATE[world]
    simulation = build_scenario(ScenarioConfig(**overrides))
    if prepare is not None:
        prepare(simulation)
    simulation.run()
    stats = harvest(simulation).overlay_stats
    assert len(simulation.members) == members
    assert sorted(stats) == ["clustering", "mean_degree", "n", "path_length"]
    assert stats["n"] == float(members)
    assert stats["mean_degree"] == 0.0
    assert stats["clustering"] == 0.0
    assert math.isnan(stats["path_length"])
    indptr, indices = simulation.overlay.csr()
    assert list(indptr) == [0] * (members + 1) and len(indices) == 0


# ----------------------------------------------------------------------
# networkx is a test-only oracle
# ----------------------------------------------------------------------
def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_src_module_imports_networkx():
    """Every import statement, at module level or inside a function."""
    modules = sorted((SRC / "repro").rglob("*.py"))
    assert len(modules) > 50
    offenders = [
        str(path.relative_to(SRC))
        for path in modules
        if any(
            name.split(".")[0] == "networkx"
            for name in _imported_modules(ast.parse(path.read_text()))
        )
    ]
    assert offenders == []


_WITHOUT_NETWORKX = """
import json, runpy, sys, tempfile
sys.modules["networkx"] = None
from repro.cli import main
from repro.experiments import reproduce_all
from repro.scenarios import ScenarioConfig, build_scenario
from repro.scenarios.runner import harvest
from repro.theory import overlay_smallworldness, rewiring_sweep

stats = {}
for alg in ("basic", "regular", "random", "hybrid"):
    s = build_scenario(ScenarioConfig(num_nodes=30, duration=60.0, algorithm=alg))
    s.run()
    stats[alg] = harvest(s).overlay_stats["n"]
    assert overlay_smallworldness(*s.overlay.csr())["n"] == stats[alg]
sweep = rewiring_sweep(n=60, k=4, ps=(0.0, 0.1), reps=1)
with tempfile.TemporaryDirectory() as out:
    reproduce_all(out, duration=30.0, reps=1)
assert main(["run", "--duration", "60", "--algorithm", "hybrid"]) == 0
runpy.run_path(sys.argv[1], run_name="__main__")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "networkx")
print(json.dumps({"stats": stats, "sweep": len(sweep), "loaded": loaded}))
"""


def test_run_path_works_without_networkx():
    """A blocked import raises ImportError if anything on the path needs it:
    runs and their harvest, ``reproduce``, ``p2p-manet run``, the theory
    package and the small-world example."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["REPRO_EXAMPLE_SCALE"] = "0.05"
    example = ROOT / "examples" / "smallworld_analysis.py"
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX, str(example)],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out["stats"]) == set(ALGORITHMS)
    assert out["sweep"] == 2
    assert out["loaded"] == ["networkx"]  # only the blocking entry itself
