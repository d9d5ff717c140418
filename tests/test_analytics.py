"""AnalyticsEngine: world-view oracles, API surface, scenario wiring.

The engine is stateless -- every call recomputes from the current view
-- so there is no lane to compare it with.  These tests pin its world
views against an independent networkx oracle (including a node dying
between two calls), the legacy-module surface (only the closed-form
helpers remain), the builder wiring, and that every removed lane
option (engine keywords, ScenarioConfig fields, CLI flags) is rejected.
"""

import networkx as nx
import numpy as np
import pytest

from repro.cli import build_parser
from repro.experiments.executor import default_chunksize, resolve_processes
from repro.metrics import smallworld as smallworld_mod
from repro.metrics import analytics as analytics_mod
from repro.metrics.analytics import AnalyticsEngine
from repro.scenarios import ScenarioConfig

from .helpers import line_positions, make_world


# ----------------------------------------------------------------------
# the executor's pool-sizing helpers
# ----------------------------------------------------------------------
class TestPoolHelpers:
    def test_resolve_default_is_cpu_count(self):
        assert resolve_processes(None) >= 1

    def test_resolve_explicit(self):
        assert resolve_processes(3) == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_resolve_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            resolve_processes(bad)

    def test_chunksize_policy(self):
        # ceil(jobs / 4p), floored at 1, capped at 32 -- the sweep policy.
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(1, 4) == 1
        assert default_chunksize(17, 4) == 2
        assert default_chunksize(10_000, 4) == 32

    def test_chunksize_rejects_negative_jobs(self):
        with pytest.raises(ValueError):
            default_chunksize(-1, 4)


def _rgg(n, radius, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * 100.0
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u in range(n):
        d = np.hypot(*(pts - pts[u]).T)
        for v in np.flatnonzero(d <= radius):
            if v > u:
                g.add_edge(u, int(v))
    return g


# ----------------------------------------------------------------------
# world views: legacy component semantics, down nodes
# ----------------------------------------------------------------------
def _nx_components_oracle(world):
    """Independent reimplementation of the historical component contract."""
    indptr, indices = world.topology.csr()
    down = world.down_mask()
    g = nx.Graph()
    g.add_nodes_from(range(world.n))
    for u in range(world.n):
        for v in indices[indptr[u] : indptr[u + 1]]:
            g.add_edge(u, int(v))
    comps = [
        sorted(c) for c in nx.connected_components(g) if not down[min(c)]
    ]
    empties = int(down.sum())
    return sorted(map(tuple, comps)), empties


def _engine_components_as_sets(engine, world):
    comps = engine.components(world)
    empties = sum(1 for c in comps if len(c) == 0)
    nonempty = sorted(tuple(int(i) for i in c) for c in comps if len(c))
    return nonempty, empties


class TestWorldAnalytics:
    def test_components_match_oracle(self):
        _, world, _ = make_world(
            line_positions(4, spacing=8.0) + [[700, 700], [708, 700], [300, 0]]
        )
        eng = AnalyticsEngine(registry=world.registry)
        assert _engine_components_as_sets(eng, world) == _nx_components_oracle(world)
        # largest-first ordering
        sizes = [len(c) for c in eng.components(world)]
        assert sizes == sorted(sizes, reverse=True)

    def test_down_node_mid_interval_regression(self):
        """A node dying between two calls must split the component exactly.

        ``set_down`` drops the node's edges from the topology's CSR; the
        next call must see the split (and the merge once it is back up).
        """
        _, world, _ = make_world(line_positions(6, spacing=8.0))
        eng = AnalyticsEngine(registry=world.registry)
        before = _engine_components_as_sets(eng, world)
        assert before == _nx_components_oracle(world)
        world.set_down(2)  # splits the line: {0,1} and {3,4,5}
        after = _engine_components_as_sets(eng, world)
        assert after == _nx_components_oracle(world)
        nonempty, empties = after
        assert empties == 1
        assert nonempty == [(0, 1), (3, 4, 5)]
        # ...and back up again (edges return, components merge)
        world.set_down(2, False)
        assert _engine_components_as_sets(eng, world) == _nx_components_oracle(world)


# ----------------------------------------------------------------------
# legacy modules: deprecation cycle elapsed, wrappers removed
# ----------------------------------------------------------------------
class TestLegacyModuleSurface:
    def test_smallworld_keeps_only_closed_forms(self):
        assert sorted(smallworld_mod.__all__) == [
            "random_graph_pathlength",
            "regular_graph_pathlength",
        ]
        for name in (
            "clustering_coefficient",
            "characteristic_path_length",
            "smallworld_stats",
        ):
            assert not hasattr(smallworld_mod, name)
        # ...and they are the only copy: repro.theory re-exports them
        from repro.theory import predictions

        assert predictions.lattice_pathlength is smallworld_mod.regular_graph_pathlength
        assert predictions.random_pathlength is smallworld_mod.random_graph_pathlength

# ----------------------------------------------------------------------
# scenario integration
# ----------------------------------------------------------------------
class TestScenarioLanes:
    def test_builder_wires_engine_and_registry(self):
        from repro.scenarios import build_scenario

        sim = build_scenario(ScenarioConfig(num_nodes=10, duration=30.0))
        assert isinstance(sim.analytics, AnalyticsEngine)
        assert sim.analytics.registry is sim.registry


class TestConfigAndCli:
    def test_lane_validation(self):
        # One path: no maintenance mode, no BFS chunk, no execution lane
        # and no worker pool to pick or size.
        import inspect

        from repro.metrics import graphfast as graphfast_mod

        assert analytics_mod.__all__ == ["AnalyticsEngine"]
        # one small-world entry point (smallworld_stats), one BFS sweep
        for name in (
            "clustering_coefficient",
            "characteristic_path_length",
            "reachable_pair_fraction",
        ):
            assert not hasattr(AnalyticsEngine, name)
        assert not hasattr(graphfast_mod, "multi_source_hops")
        sweep = inspect.signature(graphfast_mod.path_length_sums).parameters
        assert list(sweep) == ["indptr", "indices", "registry"]
        for removed in (
            {"mode": "full"},
            {"chunk": 64},
            {"execution": "parallel"},
            {"processes": 2},
        ):
            with pytest.raises(TypeError):
                AnalyticsEngine(**removed)

    def test_config_validation(self):
        for removed in (
            {"analytics_mode": "full"},
            {"analytics_exec": "serial"},
            {"analytics_processes": 2},
        ):
            with pytest.raises(TypeError):
                ScenarioConfig(**removed)

    def test_config_round_trip(self):
        cfg = ScenarioConfig(num_nodes=400)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_old_config_dicts_still_load(self):
        d = ScenarioConfig().to_dict()
        d.pop("rebroadcast")
        cfg = ScenarioConfig.from_dict(d)
        assert cfg.rebroadcast == "flood"

    def test_cli_run_flags(self):
        # Lane flags are rejected outright (tests/test_cli.py); the run
        # namespace carries no pool size either.
        assert not hasattr(build_parser().parse_args(["run"]), "processes")

    def test_cli_sweep_has_processes_flag(self):
        args = build_parser().parse_args(
            ["sweep", "nodes", "10", "20", "--processes", "3"]
        )
        assert args.processes == 3


def test_smallworld_stats_builds_one_csr_per_harvest(monkeypatch):
    """The harvest reads the overlay's own CSR once."""
    from repro.core.overlay import OverlayNetwork
    from repro.scenarios import build_scenario
    from repro.scenarios.runner import harvest

    simulation = build_scenario(
        ScenarioConfig(num_nodes=20, duration=60.0, routing="oracle")
    )
    simulation.run()
    builds = []
    real = OverlayNetwork.csr

    def counting(self):
        builds.append(1)
        return real(self)

    monkeypatch.setattr(OverlayNetwork, "csr", counting)
    harvest(simulation)
    assert len(builds) == 1


def test_module_doctests():
    import doctest

    result = doctest.testmod(analytics_mod)
    assert result.attempted > 0 and result.failed == 0
