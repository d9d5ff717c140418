"""AnalyticsEngine: lane identity, epoch contract, API delegation.

The engine's whole value proposition is that its fast lane is *free*
semantically: ``incremental`` must equal ``full`` exactly -- same
integers, same floats bit-for-bit -- over churning, moving, dying
topologies.  These tests enforce that, plus the epoch-keyed cache
contract, the legacy-module surface (only the closed-form helpers
remain) and the ScenarioConfig/CLI lane plumbing.
"""

import networkx as nx
import numpy as np
import pytest

from repro.cli import build_parser
from repro.metrics import smallworld as smallworld_mod
from repro.metrics import connectivity as connectivity_mod
from repro.metrics.analytics import (
    ANALYTICS_MODES,
    AnalyticsEngine,
    engine_for_world,
    set_world_engine,
)
from repro.metrics.graphfast import graph_csr
from repro.parallel import default_chunksize, resolve_processes, shard_ranges
from repro.scenarios import ScenarioConfig, run_scenario

from .helpers import line_positions, make_world


# ----------------------------------------------------------------------
# shared pool-sizing helpers (repro.parallel)
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

    def test_shards_cover_range_disjointly(self):
        shards = shard_ranges(1000, 4, granularity=64)
        assert shards[0][0] == 0 and shards[-1][1] == 1000
        for (_, hi), (lo2, _) in zip(shards, shards[1:]):
            assert hi == lo2
        # all but the last shard align to the BFS chunk width
        for lo, hi in shards[:-1]:
            assert (hi - lo) % 64 == 0

    def test_shards_empty_and_invalid(self):
        assert shard_ranges(0, 4) == []
        with pytest.raises(ValueError):
            shard_ranges(10, 2, granularity=0)


# ----------------------------------------------------------------------
# incremental vs full: exact equality over seeded churn
# ----------------------------------------------------------------------
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


def _churn(g, rng, swaps):
    """Remove ``swaps`` random edges, add ``swaps`` random non-edges."""
    n = g.number_of_nodes()
    edges = list(g.edges)
    rng.shuffle(edges)
    for u, v in edges[:swaps]:
        g.remove_edge(u, v)
    added = 0
    while added < swaps:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            added += 1


@pytest.mark.parametrize("radius", [12.0, 25.0], ids=["sparse", "dense"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_incremental_equals_full_over_churn(radius, seed):
    g = _rgg(60, radius, seed)
    rng = np.random.default_rng(100 + seed)
    incr = AnalyticsEngine(mode="incremental")
    full = AnalyticsEngine(mode="full")
    for epoch in range(12):
        if epoch:
            _churn(g, rng, swaps=3)
        indptr, indices, _ = graph_csr(g)
        bi = incr.harvest(indptr, indices, key="view", epoch=epoch)
        bf = full.harvest(indptr, indices)
        assert bi == bf  # exact, every key, every float
        ci = incr.characteristic_path_length_csr(
            indptr, indices, key="view", epoch=epoch
        )
        cf = full.characteristic_path_length_csr(indptr, indices)
        assert ci == cf or (np.isnan(ci) and np.isnan(cf))
    hits = incr.registry.counter("analytics.incremental_hits", layer="metrics")
    assert hits.value > 0  # the delta path actually ran


def test_explicit_deltas_equal_full():
    g = _rgg(50, 16.0, seed=7)
    incr = AnalyticsEngine(mode="incremental")
    full = AnalyticsEngine(mode="full")
    indptr, indices, _ = graph_csr(g)
    incr.harvest(indptr, indices, key="k", epoch=0)
    removed = list(g.edges)[:4]
    for u, v in removed:
        g.remove_edge(u, v)
    added = []
    for u, v in ((1, 40), (2, 47), (3, 33)):
        if not g.has_edge(u, v):  # the delta must be the exact transition
            g.add_edge(u, v)
            added.append((u, v))
    indptr, indices, _ = graph_csr(g)
    bi = incr.harvest(
        indptr, indices, key="k", epoch=1, added=added, removed=removed
    )
    assert bi == full.harvest(indptr, indices)


def test_epoch_discontinuity_falls_back_to_full():
    g = _rgg(40, 15.0, seed=4)
    eng = AnalyticsEngine(mode="incremental")
    indptr, indices, _ = graph_csr(g)
    eng.harvest(indptr, indices, key="k", epoch=10)
    fallbacks = eng.registry.counter("analytics.epoch_fallbacks", layer="metrics")
    before = fallbacks.value
    # Epoch moving backwards = a different world generation: rebuild.
    b = eng.harvest(indptr, indices, key="k", epoch=3)
    assert fallbacks.value == before + 1
    assert b == AnalyticsEngine(mode="full").harvest(indptr, indices)


def test_node_count_change_falls_back_to_full():
    eng = AnalyticsEngine(mode="incremental")
    g = _rgg(30, 15.0, seed=5)
    indptr, indices, _ = graph_csr(g)
    eng.harvest(indptr, indices, key="k", epoch=0)
    g.add_node(30)  # n changes: incompatible view
    indptr, indices, _ = graph_csr(g)
    b = eng.harvest(indptr, indices, key="k", epoch=1)
    assert b["n"] == 31.0
    assert b == AnalyticsEngine(mode="full").harvest(indptr, indices)


def test_large_delta_triggers_full_rebuild():
    g = _rgg(40, 15.0, seed=6)
    eng = AnalyticsEngine(mode="incremental")
    indptr, indices, _ = graph_csr(g)
    eng.harvest(indptr, indices, key="k", epoch=0)
    full_before = eng.registry.counter(
        "analytics.full_recomputes", layer="metrics"
    ).value
    _churn(g, np.random.default_rng(0), swaps=30)  # 60 changed edges > gate
    indptr, indices, _ = graph_csr(g)
    b = eng.harvest(indptr, indices, key="k", epoch=1)
    assert (
        eng.registry.counter("analytics.full_recomputes", layer="metrics").value
        == full_before + 1
    )
    assert b == AnalyticsEngine(mode="full").harvest(indptr, indices)


def test_same_epoch_is_a_cache_hit():
    g = _rgg(30, 15.0, seed=8)
    eng = AnalyticsEngine(mode="incremental")
    indptr, indices, _ = graph_csr(g)
    b1 = eng.harvest(indptr, indices, key="k", epoch=5)
    hits = eng.registry.counter("analytics.csr_cache_hits", layer="metrics")
    before = hits.value
    b2 = eng.harvest(indptr, indices, key="k", epoch=5)
    assert hits.value == before + 1
    assert b1 == b2


# ----------------------------------------------------------------------
# world views: legacy component semantics, epochs, down nodes
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
        eng = engine_for_world(world)
        assert _engine_components_as_sets(eng, world) == _nx_components_oracle(world)
        # largest-first ordering
        sizes = [len(c) for c in eng.components(world)]
        assert sizes == sorted(sizes, reverse=True)

    def test_down_node_mid_interval_regression(self):
        """A node dying between harvests must update labels exactly.

        ``set_down`` bumps ``adjacency_epoch``; the engine's delta path
        sees the node's edges vanish and must not leave stale component
        state behind -- including when the removal *splits* a component
        (no common-neighbor witness -> label rebuild).
        """
        _, world, _ = make_world(line_positions(6, spacing=8.0))
        eng = engine_for_world(world)
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

    def test_incremental_world_stats_match_full_lane(self):
        _, world, _ = make_world(
            [[x, y] for x in range(0, 40, 8) for y in range(0, 40, 8)]
        )
        incr = set_world_engine(
            world, AnalyticsEngine(mode="incremental", registry=world.registry)
        )
        full = AnalyticsEngine(mode="full", registry=world.registry)
        for step in range(4):
            if step:
                world.set_down(step)
            assert incr.connectivity_stats(world) == full.connectivity_stats(world)
            assert incr.reachable_pair_fraction(world) == full.reachable_pair_fraction(
                world
            )

    def test_repeat_harvest_same_epoch_hits_cache(self):
        _, world, _ = make_world(line_positions(5, spacing=8.0))
        eng = engine_for_world(world)
        eng.components(world)
        hits = eng.registry.counter("analytics.csr_cache_hits", layer="metrics")
        before = hits.value
        eng.components(world)  # same epoch: memoized
        assert hits.value == before + 1

    def test_engine_for_world_is_cached_and_replaceable(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0))
        e1 = engine_for_world(world)
        assert engine_for_world(world) is e1
        e2 = engine_for_world(world, mode="full")
        assert e2 is not e1 and e2.mode == "full"
        assert engine_for_world(world) is e2  # lane-less lookup reuses it
        e3 = AnalyticsEngine(registry=world.registry)
        assert set_world_engine(world, e3) is e3
        assert engine_for_world(world) is e3


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

    def test_connectivity_keeps_only_closed_form(self):
        assert connectivity_mod.__all__ == ["expected_mean_degree"]
        for name in ("components", "connectivity_stats", "reachable_pair_fraction"):
            assert not hasattr(connectivity_mod, name)
        assert connectivity_mod.expected_mean_degree(
            50, 100.0, 100.0, 10.0
        ) == pytest.approx(49 * np.pi / 100.0)


# ----------------------------------------------------------------------
# scenario integration: lanes through ScenarioConfig
# ----------------------------------------------------------------------
class TestScenarioLanes:
    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_lanes_produce_identical_results(self, mode):
        base = dict(
            num_nodes=20,
            duration=60.0,
            seed=3,
            mobility="waypoint",
            max_speed=2.0,
        )
        ref = run_scenario(ScenarioConfig(**base))  # default lanes
        res = run_scenario(ScenarioConfig(**base, analytics_mode=mode))
        assert res.overlay_stats == ref.overlay_stats
        assert res.totals == ref.totals
        for fam in res.sorted_received:
            assert np.array_equal(res.sorted_received[fam], ref.sorted_received[fam])
        assert res.balance == ref.balance

    def test_builder_wires_engine_and_registry(self):
        from repro.scenarios import build_scenario

        sim = build_scenario(
            ScenarioConfig(num_nodes=10, duration=30.0, analytics_mode="full")
        )
        assert sim.analytics is not None
        assert sim.analytics.mode == "full"
        assert sim.analytics.registry is sim.registry
        assert engine_for_world(sim.world) is sim.analytics


class TestConfigAndCli:
    def test_lane_validation(self):
        with pytest.raises(ValueError):
            AnalyticsEngine(mode="sometimes")
        assert ANALYTICS_MODES == ("incremental", "full")
        # The maintenance mode is the only lane left: there is no
        # execution lane and no BFS worker pool to size.
        for removed in ({"execution": "parallel"}, {"processes": 2}):
            with pytest.raises(TypeError):
                AnalyticsEngine(**removed)
            with pytest.raises(TypeError):
                engine_for_world(make_world(line_positions(2))[1], **removed)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(analytics_mode="magic")
        for removed in ({"analytics_exec": "serial"}, {"analytics_processes": 2}):
            with pytest.raises(TypeError):
                ScenarioConfig(**removed)

    def test_config_round_trip(self):
        cfg = ScenarioConfig(analytics_mode="full")
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_old_config_dicts_still_load(self):
        d = ScenarioConfig().to_dict()
        d.pop("analytics_mode")
        cfg = ScenarioConfig.from_dict(d)
        assert cfg.analytics_mode == "incremental"

    def test_cli_run_flags(self):
        args = build_parser().parse_args(["run", "--analytics-mode", "full"])
        assert args.analytics_mode == "full"
        assert not hasattr(args, "processes")

    def test_cli_sweep_has_processes_flag(self):
        args = build_parser().parse_args(
            ["sweep", "nodes", "10", "20", "--processes", "3"]
        )
        assert args.processes == 3


# ----------------------------------------------------------------------
# nx-view epoch-keyed CSR cache (the smallworld_stats fix)
# ----------------------------------------------------------------------
def test_smallworld_csr_cached_on_epoch():
    g = _rgg(40, 15.0, seed=12)
    eng = AnalyticsEngine()
    s1 = eng.smallworld_stats(g, key="o", epoch=7)
    hits = eng.registry.counter("analytics.csr_cache_hits", layer="metrics")
    before = hits.value
    s2 = eng.smallworld_stats(g, key="o", epoch=7)
    assert hits.value > before  # the graph_csr build was skipped
    assert s1 == s2


def test_smallworld_stats_builds_one_csr_per_harvest():
    """The legacy module built the CSR once per metric; the engine once."""
    g = _rgg(40, 15.0, seed=13)
    eng = AnalyticsEngine()
    builds = []
    import repro.metrics.analytics as analytics_mod

    real = analytics_mod.graph_csr

    def counting(graph):
        builds.append(1)
        return real(graph)

    analytics_mod.graph_csr = counting
    try:
        eng.smallworld_stats(g)
    finally:
        analytics_mod.graph_csr = real
    assert len(builds) == 1
