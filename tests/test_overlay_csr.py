"""The overlay's own CSR and the small-world harvest that reads it.

``OverlayNetwork.csr()`` must carry exactly the edge set of the
networkx export ``OverlayNetwork.graph()`` (rows in ``members`` order),
``AnalyticsEngine.smallworld_stats`` fed that CSR must give the dict the
graph-based harvest gave, and no run-path module may load networkx.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.core import HybridAlgorithm
from repro.metrics import (
    AnalyticsEngine,
    average_clustering,
    graph_csr,
    path_length_sums,
    random_graph_pathlength,
    regular_graph_pathlength,
)
from repro.scenarios import ScenarioConfig, build_scenario
from repro.scenarios.runner import harvest

ALGORITHMS = ("basic", "regular", "random", "hybrid")
SRC = Path(__file__).resolve().parent.parent / "src"


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
        ref_indptr, ref_indices, nodes = graph_csr(overlay.graph())
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
        simulation = build_scenario(ScenarioConfig(num_nodes=10, duration=1.0))
        overlay = simulation.overlay
        m = overlay.members
        overlay._edges = lambda: iter(
            [
                (m[0], m[1], {"random": False}),  # one-sided
                (m[2], m[3], {"random": True}),  # mutual ...
                (m[3], m[2], {"random": True}),
                (m[2], m[4], {"random": False}),  # ... and a slave twice
                (m[2], m[4], {"slave": True}),
            ]
        )
        indptr, indices = overlay.csr()
        ref_indptr, ref_indices, _ = graph_csr(overlay.graph())
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(indices, ref_indices)
        assert list(indices[indptr[2] : indptr[3]]) == [3, 4]
        assert indptr[-1] == indptr[5]  # every later member isolated
        g = overlay.graph()
        assert g.edges[m[2], m[4]] == {"random": False, "slave": True}


class TestSmallworldStatsFromCsr:
    def test_equals_graph_based_dict(self, finished):
        stats = AnalyticsEngine().smallworld_stats(*finished.overlay.csr())
        _same_stats(stats, _graph_stats(finished.overlay.graph()))

    def test_harvest_equals_graph_based_dict(self, finished):
        _same_stats(
            harvest(finished).overlay_stats, _graph_stats(finished.overlay.graph())
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
# networkx stays off the run path
# ----------------------------------------------------------------------
_RUN_PATH = """
import json, sys, tempfile
{block}
from repro.cli import main
from repro.experiments import reproduce_all
from repro.scenarios import ScenarioConfig, build_scenario
from repro.scenarios.runner import harvest

stats = {{}}
for alg in ("basic", "regular", "random", "hybrid"):
    s = build_scenario(ScenarioConfig(num_nodes=30, duration=60.0, algorithm=alg))
    s.run()
    stats[alg] = harvest(s).overlay_stats["n"]
with tempfile.TemporaryDirectory() as out:
    reproduce_all(out, duration=30.0, reps=1)
assert main(["run", "--duration", "60", "--algorithm", "hybrid"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "networkx")
print(json.dumps({{"stats": stats, "loaded": loaded}}))
"""


def _run_path(block: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PATH.format(block=block)],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_path_works_without_networkx():
    """A blocked import raises ImportError if anything on the path needs it."""
    out = _run_path('sys.modules["networkx"] = None')
    assert set(out["stats"]) == set(ALGORITHMS)
    assert out["loaded"] == ["networkx"]  # only the blocking entry itself


def test_run_path_does_not_load_networkx():
    out = _run_path("")
    assert out["loaded"] == []
