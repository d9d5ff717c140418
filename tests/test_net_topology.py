"""Topology service tests: A/B backend equivalence + World edge cases.

The dense matrix backend is the reference implementation; the sparse
grid backend must agree with it *exactly* -- same neighbor sets, same
hop distances -- on randomized mobility traces.  The World edge cases
(snapshot reuse/invalidation, churn mid-snapshot, depletion, backwards
clock) run against both backends, since the node count may hand a
scenario either one.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import run_key
from repro.mobility import Area, RandomWaypoint, Static
from repro.net import DenseTopology, EnergyModel, SparseGridTopology, World, make_topology
from repro.net.topology import SPARSE_MIN_NODES, UNREACHABLE
from repro.scenarios import ScenarioConfig, build_scenario, run_scenario
from repro.sim import Simulator

from .helpers import BACKENDS, pin_backend


def make_pair(n, seed, *, radio_range=10.0, area=(100.0, 100.0), snapshot_interval=0.0):
    """Two worlds over identical mobility traces, one per backend."""
    worlds = {}
    for backend, cls in BACKENDS.items():
        sim = Simulator()
        mobility = RandomWaypoint(n, Area(*area), np.random.default_rng(seed))
        worlds[backend] = World(
            sim,
            mobility,
            radio_range=radio_range,
            snapshot_interval=snapshot_interval,
            topology=cls,
        )
    return worlds


def advance(world, t):
    world.sim.schedule_at(t, lambda: None)
    world.sim.run(until=t)


def static_world(positions, backend, *, radio_range=10.0, capacity=float("inf")):
    pts = np.asarray(positions, dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000.0, 1000.0), np.random.default_rng(0), positions=pts)
    world = World(
        sim,
        mobility,
        radio_range=radio_range,
        energy=EnergyModel(len(pts), capacity=capacity),
        topology=BACKENDS[backend],
    )
    return sim, world


class TestEquivalence:
    """Dense and sparse must agree exactly (acceptance criterion)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_neighbors_and_hops_identical(self, seed):
        n = 60
        worlds = make_pair(n, seed)
        for t in (0.0, 90.0, 250.0, 400.0):
            for w in worlds.values():
                advance(w, t)
            dense, sparse = worlds["dense"], worlds["sparse"]
            for i in range(n):
                nd = dense.neighbors(i)
                ns = sparse.neighbors(i)
                assert np.array_equal(nd, ns), f"neighbors({i}) differ at t={t}"
                assert np.array_equal(
                    dense.hops_from(i), sparse.hops_from(i)
                ), f"hops_from({i}) differ at t={t}"

    @pytest.mark.parametrize("seed", range(3))
    def test_matrix_links_degrees_identical(self, seed):
        worlds = make_pair(40, seed, radio_range=15.0)
        for t in (0.0, 120.0, 333.0):
            for w in worlds.values():
                advance(w, t)
            dense, sparse = worlds["dense"], worlds["sparse"]
            assert np.array_equal(dense.adjacency(), sparse.adjacency())
            assert np.array_equal(dense.degrees(), sparse.degrees())
            assert dense.link_count() == sparse.link_count()
            rng = np.random.default_rng(seed)
            for _ in range(50):
                i, j = rng.integers(0, 40, size=2)
                assert dense.link(int(i), int(j)) == sparse.link(int(i), int(j))

    @pytest.mark.parametrize("seed", range(3))
    def test_equivalence_under_churn(self, seed):
        worlds = make_pair(50, seed)
        rng = np.random.default_rng(seed + 100)
        downs = rng.choice(50, size=8, replace=False)
        for t in (0.0, 60.0, 180.0):
            for w in worlds.values():
                advance(w, t)
                for i in downs[:4]:
                    w.set_down(int(i))
                for i in downs[4:]:
                    w.set_down(int(i), down=False)
            dense, sparse = worlds["dense"], worlds["sparse"]
            for i in range(50):
                assert np.array_equal(dense.neighbors(i), sparse.neighbors(i))
                assert np.array_equal(dense.hops_from(i), sparse.hops_from(i))

    def test_boundary_distance_inclusive_both(self):
        # Exactly at the radio range: both backends must include the link
        # (the grid block search must not lose boundary cells).
        for backend in BACKENDS:
            _, world = static_world([[0.0, 0.0], [10.0, 0.0]], backend)
            assert world.link(0, 1), backend
            assert list(world.neighbors(0)) == [1], backend


class TestSparseInternals:
    def test_csr_built_lazily(self):
        worlds = make_pair(30, 0)
        sparse = worlds["sparse"]
        topo = sparse.topology
        assert isinstance(topo, SparseGridTopology)
        sparse.neighbors(3)  # neighbor query must not build the CSR
        assert topo.registry.value("topology.csr_builds") == 0
        sparse.hops_from(3)  # BFS does
        assert topo.registry.value("topology.csr_builds") == 1
        sparse.hops_from(7)  # ... once per snapshot
        assert topo.registry.value("topology.csr_builds") == 1

    def test_distance_cache_lru_bound(self):
        sim = Simulator()
        mobility = RandomWaypoint(30, Area(100, 100), np.random.default_rng(0))
        world = World(sim, mobility, topology=SparseGridTopology)
        world.topology.dist_cache_size = 4
        for src in range(10):
            world.hops_from(src)
        assert len(world.topology._dist) == 4
        # most-recently-used sources survive
        assert set(world.topology._dist) == {6, 7, 8, 9}
        world.hops_from(7)
        world.hops_from(20)
        assert 7 in world.topology._dist and 6 not in world.topology._dist

    def test_dist_cache_hit_counter(self):
        worlds = make_pair(20, 1)
        w = worlds["sparse"]
        w.hops_from(0)
        w.hops_from(0)
        assert w.registry.value("topology.dist_cache_hits") == 1


def static_n(n):
    return Static(n, Area(), np.random.default_rng(0))


class TestFactory:
    def test_make_topology_by_name_and_class(self):
        # The node count alone picks the backend; a class is the only
        # override (a test seam), and names are gone.
        assert SPARSE_MIN_NODES == 400
        small = World(Simulator(), static_n(399))
        assert isinstance(small.topology, DenseTopology)
        assert isinstance(make_topology(World(Simulator(), static_n(400))), SparseGridTopology)
        pinned = World(Simulator(), static_n(3), topology=SparseGridTopology)
        assert isinstance(pinned.topology, SparseGridTopology)
        with pytest.raises(TypeError):
            World(Simulator(), static_n(3), topology="sparse")

    def test_world_rejects_bad_cache_size(self):
        # The distance-cache bound is no parameter; tests set the attribute.
        with pytest.raises(TypeError):
            World(Simulator(), static_n(3), dist_cache_size=4)
        with pytest.raises(TypeError):
            SparseGridTopology(World(Simulator(), static_n(3)), dist_cache_size=4)

    def test_scenario_config_topology_knob(self):
        assert ScenarioConfig().topology == "auto"
        assert ScenarioConfig(topology="auto", num_nodes=500).topology == "auto"
        for value in ("dense", "sparse", "hexgrid"):
            with pytest.raises(ValueError, match="chosen from num_nodes") as err:
                ScenarioConfig(topology=value)
            assert repr(value) in str(err.value) and "400" in str(err.value)

    def test_builder_selects_backend(self):
        below = build_scenario(ScenarioConfig(num_nodes=399, duration=1))
        assert isinstance(below.world.topology, DenseTopology)
        at = build_scenario(ScenarioConfig(num_nodes=400, duration=1))
        assert isinstance(at.world.topology, SparseGridTopology)

    def test_cli_and_api_configs_share_run_key(self, capsys):
        # `run` used to pass topology="auto" where ScenarioConfig()
        # defaulted to "dense": one scenario, two cache keys.
        for n in (50, 450):
            assert main(["run", "--nodes", str(n), "--duration", "1", "--json"]) == 0
            cli_cfg = ScenarioConfig.from_dict(json.loads(capsys.readouterr().out)["config"])
            assert run_key(cli_cfg) == run_key(ScenarioConfig(num_nodes=n, duration=1.0))

    def test_full_scenario_identical_across_backends(self):
        # The backends are exact-equivalent, so a whole simulation must
        # be bit-for-bit identical regardless of which one runs it.
        runs = {}
        for backend in BACKENDS:
            with pin_backend(backend):
                runs[backend] = run_scenario(
                    ScenarioConfig(duration=60.0, seed=3, routing="oracle")
                )
        dense, sparse = runs["dense"], runs["sparse"]
        assert dense.totals == sparse.totals
        assert dense.events == sparse.events


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestWorldEdgeCases:
    """Satellite: World edge cases, identical across backends."""

    def test_snapshot_interval_reuses_within_quantum(self, backend):
        sim = Simulator()
        mobility = RandomWaypoint(20, Area(50, 50), np.random.default_rng(2), max_pause=0.5)
        world = World(sim, mobility, snapshot_interval=1.0, topology=BACKENDS[backend])
        world.neighbors(0)
        t0 = world.topology.snapshot_time
        rebuilds = world.registry.value("topology.rebuilds")
        advance(world, 0.5)  # inside the quantum: snapshot reused
        world.neighbors(0)
        assert world.topology.snapshot_time == t0
        assert world.registry.value("topology.rebuilds") == rebuilds
        advance(world, 2.0)  # outside: recomputed
        world.neighbors(0)
        assert world.topology.snapshot_time == 2.0
        assert world.registry.value("topology.rebuilds") == rebuilds + 1

    def test_invalidate_forces_recompute_same_timestamp(self, backend):
        sim = Simulator()
        mobility = RandomWaypoint(10, Area(50, 50), np.random.default_rng(3))
        world = World(sim, mobility, snapshot_interval=5.0, topology=BACKENDS[backend])
        world.neighbors(0)
        rebuilds = world.registry.value("topology.rebuilds")
        world.invalidate()
        world.neighbors(0)
        assert world.registry.value("topology.rebuilds") == rebuilds + 1

    def test_set_down_mid_snapshot(self, backend):
        # Killing a node must take effect immediately, even with a
        # coarse snapshot quantum and no clock movement.
        _, world = static_world([[0, 0], [8, 0], [16, 0]], backend)
        world.snapshot_interval = 10.0
        assert world.hop_distance(0, 2) == 2
        world.set_down(1)
        assert list(world.neighbors(0)) == []
        assert world.hop_distance(0, 2) == UNREACHABLE
        assert world.hops_from(1).tolist() == [UNREACHABLE] * 3
        world.set_down(1, down=False)
        assert world.hop_distance(0, 2) == 2

    def test_depleted_node_excluded_from_neighbors(self, backend):
        _, world = static_world([[0, 0], [8, 0], [16, 0]], backend, capacity=1e-4)
        assert 1 in world.neighbors(0)
        world.energy.charge_tx(1, 10_000)  # drains node 1's battery
        world.check_depletion()
        assert list(world.neighbors(0)) == []
        assert not world.link(0, 1)
        assert world.hop_distance(0, 2) == UNREACHABLE

    def test_backwards_clock_forces_rebuild(self, backend):
        # Two independent sims sharing nothing; a world re-queried at an
        # earlier time than its snapshot must rebuild, not reuse.
        sim = Simulator(start_time=100.0)
        mobility = RandomWaypoint(15, Area(50, 50), np.random.default_rng(4), max_pause=0.5)
        world = World(sim, mobility, snapshot_interval=1000.0, topology=BACKENDS[backend])
        world.neighbors(0)
        assert world.topology.snapshot_time == 100.0
        # Simulate a fresh kernel attached at an earlier clock (resume /
        # reuse patterns): snapshot time is in the future -> stale.
        world.sim = Simulator(start_time=50.0)
        world._pos_time = -1.0
        world.neighbors(0)
        assert world.topology.snapshot_time == 50.0

    def test_neighbors_sorted_ascending(self, backend):
        pts = np.random.default_rng(5).random((40, 2)) * 60
        _, world = static_world(pts, backend, radio_range=20.0)
        for i in range(40):
            nbrs = world.neighbors(i)
            assert np.array_equal(nbrs, np.sort(nbrs))
