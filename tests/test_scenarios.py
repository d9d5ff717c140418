"""Tests for scenario config, builder and runner."""

import gc
import math

import numpy as np
import pytest

from repro.experiments import ExperimentExecutor, figure_configs
from repro.obs.registry import Registry
from repro.scenarios import ScenarioConfig, build_scenario, run_scenario


class TestConfig:
    def test_paper_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.num_nodes == 50
        assert cfg.area_width == cfg.area_height == 100.0
        assert cfg.radio_range == 10.0
        assert cfg.p2p_fraction == 0.75
        assert cfg.num_files == 20
        assert cfg.max_freq == 0.4
        assert cfg.duration == 3600.0
        assert cfg.p2p.nhops_initial == 2
        assert cfg.p2p.max_nhops == 6
        assert cfg.p2p.nhops_basic == 6
        assert cfg.p2p.max_dist == 6
        assert cfg.p2p.max_connections == 3
        assert cfg.p2p.max_slaves == 3
        assert cfg.query.ttl == 6

    def test_num_members_rounding(self):
        assert ScenarioConfig(num_nodes=50).num_members == 38  # round(37.5)
        assert ScenarioConfig(num_nodes=150).num_members == 112  # round(112.5)

    def test_with_override(self):
        cfg = ScenarioConfig().with_(num_nodes=150, algorithm="hybrid")
        assert cfg.num_nodes == 150 and cfg.algorithm == "hybrid"
        assert cfg.radio_range == 10.0

    def test_repetition_seed(self):
        cfg = ScenarioConfig(seed=10)
        assert cfg.for_repetition(3).seed == 13

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(num_nodes=1)
        with pytest.raises(ValueError):
            ScenarioConfig(p2p_fraction=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(algorithm="gnutella2")
        with pytest.raises(ValueError):
            ScenarioConfig(routing="ospf")
        for retired in ("teleport", "walk", "manhattan"):
            with pytest.raises(ValueError, match="unknown mobility model"):
                ScenarioConfig(mobility=retired)
        with pytest.raises(ValueError):
            ScenarioConfig(duration=0)


class TestBuilder:
    def test_layers_wired(self):
        s = build_scenario(ScenarioConfig(num_nodes=20, duration=10.0))
        assert s.world.n == 20
        assert len(s.members) == 15
        assert len(s.overlay.servents) == 15
        assert s.metrics.n == 20

    def test_oracle_routing_option(self):
        from repro.routing import OracleRouter

        s = build_scenario(ScenarioConfig(num_nodes=10, routing="oracle"))
        assert isinstance(s.router, OracleRouter)

    def test_static_mobility_option(self):
        from repro.mobility import Static

        s = build_scenario(ScenarioConfig(num_nodes=10, mobility="static"))
        assert isinstance(s.mobility, Static)

    def test_same_seed_same_membership_and_files(self):
        a = build_scenario(ScenarioConfig(num_nodes=30, seed=5))
        b = build_scenario(ScenarioConfig(num_nodes=30, seed=5))
        assert a.members == b.members
        for m in a.members:
            assert a.overlay.servents[m].store.files() == b.overlay.servents[
                m
            ].store.files()

    def test_different_seed_different_membership(self):
        a = build_scenario(ScenarioConfig(num_nodes=40, seed=1))
        b = build_scenario(ScenarioConfig(num_nodes=40, seed=2))
        assert a.members != b.members or a.overlay.servents[
            a.members[0]
        ].store.files() != b.overlay.servents[b.members[0]].store.files()

    def test_run_parks_the_built_world_until_the_horizon(self):
        import gc

        s = build_scenario(ScenarioConfig(num_nodes=10, duration=5.0, routing="oracle"))
        frozen = []
        s.sim.schedule(1.0, lambda: frozen.append(gc.get_freeze_count()))
        assert gc.get_freeze_count() == 0
        s.run()
        assert frozen[0] > 0 and gc.get_freeze_count() == 0

    def test_run_unfreezes_when_a_handler_raises(self):
        import gc

        s = build_scenario(ScenarioConfig(num_nodes=10, duration=5.0, routing="oracle"))

        def boom():
            raise RuntimeError("handler failed")

        s.sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="handler failed"):
            s.run()
        assert gc.get_freeze_count() == 0

    def test_a_simulation_runs_once(self):
        s = build_scenario(ScenarioConfig(num_nodes=10, duration=5.0, routing="oracle"))
        s.run()
        events = s.sim.registry.value("kernel.events_dispatched")
        with pytest.raises(RuntimeError, match="already run"):
            s.run()
        assert s.sim.registry.value("kernel.events_dispatched") == events


def _metro(n, **kw):
    """The bench's metro_mobility shape: n nodes at the paper's density."""
    side = 100.0 * math.sqrt(n / 50.0)
    return ScenarioConfig(
        num_nodes=n, area_width=side, area_height=side, queries=False,
        duration=5.0, seed=1, **kw,
    )


class TestParkedCollector:
    """build_scenario wires with the cyclic collector off, and only then."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_state_comes_back(self, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            build_scenario(ScenarioConfig(num_nodes=10, routing="oracle"))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_state_comes_back_when_a_layer_raises(self, monkeypatch):
        from repro.core.overlay import OverlayNetwork

        seen = []

        def boom(self, *args, **kwargs):
            seen.append(gc.isenabled())
            raise RuntimeError("overlay failed")

        monkeypatch.setattr(OverlayNetwork, "__init__", boom)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="overlay failed"):
            build_scenario(ScenarioConfig(num_nodes=10, routing="oracle"))
        assert seen == [False] and gc.isenabled()

    def test_build_freezes_nothing(self):
        build_scenario(ScenarioConfig(num_nodes=10, routing="oracle"))
        assert gc.get_freeze_count() == 0

    def test_build_leaves_next_to_no_garbage(self):
        # the premise of parking the collector: the wiring makes no cycles
        # worth collecting
        gc.collect()
        s = build_scenario(_metro(1000))
        assert gc.collect() < 100
        assert s.world.n == 1000


class TestQueryStreams:
    """A member's query stream is created at its first draw."""

    def test_no_query_stream_without_queries(self):
        s = build_scenario(_metro(10_000))
        names = list(s.rng._streams)
        assert not [name for name in names if name.startswith("p2p.node.")]
        assert len(names) == 7504

    def test_every_member_draws_in_a_query_run(self):
        s = build_scenario(ScenarioConfig(num_nodes=20, duration=5.0, routing="oracle"))
        assert not [name for name in s.rng._streams if name.startswith("p2p.node.")]
        s.run()
        assert all(f"p2p.node.{m}" in s.rng._streams for m in s.members)


class TestRunner:
    def test_run_scenario_harvests(self):
        res = run_scenario(
            ScenarioConfig(num_nodes=20, duration=120.0, seed=3, algorithm="regular")
        )
        assert res.totals["connect"] > 0
        assert len(res.sorted_received["connect"]) == 15
        assert (np.diff(res.sorted_received["connect"]) <= 0).all()
        assert len(res.file_stats) == 20
        assert res.energy.shape == (20,)
        assert res.events > 0

    def test_determinism(self):
        cfg = ScenarioConfig(num_nodes=20, duration=120.0, seed=7)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.totals == b.totals
        assert np.array_equal(a.sorted_received["connect"], b.sorted_received["connect"])
        assert np.array_equal(a.energy, b.energy)

    def test_repetitions_differ(self):
        # repetitions are consecutive seed offsets, run as one batch
        cfg = ScenarioConfig(num_nodes=20, duration=120.0, seed=0)
        executor = ExperimentExecutor(registry=Registry())
        results = executor.run_configs([cfg.for_repetition(r) for r in range(2)])
        assert len(results) == 2
        assert results[0].totals != results[1].totals

    def test_repetitions_validation(self):
        with pytest.raises(ValueError):
            figure_configs("fig7", reps=0)

    def test_queries_can_be_disabled(self):
        res = run_scenario(
            ScenarioConfig(num_nodes=15, duration=120.0, queries=False)
        )
        assert res.num_queries == 0
        assert res.totals["query"] == 0
