"""Topology service tests: grid vs dense-oracle equivalence + World edge cases.

The dense matrix (``helpers.DenseOracle``) is the reference; the grid
backend must agree with it *exactly* -- same neighbor sets, same hop
distances -- on randomized mobility traces.  The World edge cases
(snapshot reuse/invalidation, churn mid-snapshot, depletion, backwards
clock) run against the grid.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.query import QueryConfig
from repro.experiments import run_key
from repro.mobility import Area, RandomWaypoint, Static
from repro.net import EnergyModel, TopologyBackend, World
from repro.net.topology import UNREACHABLE
from repro.scenarios import ScenarioConfig, build_scenario
from repro.scenarios.runner import harvest
from repro.sim import Simulator

from .helpers import DenseOracle, reference_bfs, reference_sparse_csr


def make_pair(n, seed, *, radio_range=10.0, area=(100.0, 100.0), snapshot_interval=0.0):
    """Two worlds over identical mobility traces: the dense oracle and the grid."""
    worlds = {}
    for name in ("dense", "sparse"):
        mobility = RandomWaypoint(n, Area(*area), np.random.default_rng(seed))
        worlds[name] = World(
            Simulator(),
            mobility,
            radio_range=radio_range,
            snapshot_interval=snapshot_interval,
        )
    worlds["dense"].topology = DenseOracle(worlds["dense"])
    return worlds


def advance(world, t):
    world.sim.schedule_at(t, lambda: None)
    world.sim.run(until=t)


def static_world(positions, *, radio_range=10.0, capacity=float("inf")):
    pts = np.asarray(positions, dtype=float)
    sim = Simulator()
    mobility = Static(len(pts), Area(1000.0, 1000.0), np.random.default_rng(0), positions=pts)
    world = World(
        sim,
        mobility,
        radio_range=radio_range,
        energy=EnergyModel(len(pts), capacity=capacity),
    )
    return sim, world


class TestEquivalence:
    """The grid must agree with the dense oracle exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_neighbors_and_hops_identical(self, seed):
        n = 60
        worlds = make_pair(n, seed)
        for t in (0.0, 90.0, 250.0, 400.0):
            for w in worlds.values():
                advance(w, t)
            dense, sparse = worlds["dense"], worlds["sparse"]
            for i in range(n):
                nd = dense.topology.neighbors(i)
                ns = sparse.topology.neighbors(i)
                assert np.array_equal(nd, ns), f"neighbors({i}) differ at t={t}"
                assert np.array_equal(
                    dense.topology.hops_from(i), sparse.topology.hops_from(i)
                ), f"hops_from({i}) differ at t={t}"

    @pytest.mark.parametrize("seed", range(3))
    def test_matrix_links_degrees_identical(self, seed):
        worlds = make_pair(40, seed, radio_range=15.0)
        for t in (0.0, 120.0, 333.0):
            for w in worlds.values():
                advance(w, t)
            dense, sparse = worlds["dense"], worlds["sparse"]
            assert np.array_equal(
                dense.topology.adjacency_matrix(), sparse.topology.adjacency_matrix()
            )
            assert np.array_equal(dense.topology.degrees(), sparse.topology.degrees())
            assert dense.topology.link_count() == sparse.topology.link_count()
            rng = np.random.default_rng(seed)
            for _ in range(50):
                i, j = rng.integers(0, 40, size=2)
                assert dense.topology.link(int(i), int(j)) == sparse.topology.link(int(i), int(j))

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
                assert np.array_equal(dense.topology.neighbors(i), sparse.topology.neighbors(i))
                assert np.array_equal(dense.topology.hops_from(i), sparse.topology.hops_from(i))

    def test_boundary_distance_inclusive_both(self):
        # Exactly at the radio range: the grid and the oracle must include
        # the link (the grid block search must not lose boundary cells).
        _, world = static_world([[0.0, 0.0], [10.0, 0.0]])
        oracle = DenseOracle(world)
        for topology in (world.topology, oracle):
            assert topology.link(0, 1), topology
            assert list(topology.neighbors(0)) == [1], topology


class TestSparseInternals:
    def test_csr_built_lazily(self):
        # One CSR per snapshot, built by the snapshot's first read
        # (whichever it is).  A refresh keeps the snapshot when neither
        # the positions nor the up-set changed, and so builds none.
        mobility = RandomWaypoint(
            40, Area(60.0, 60.0), np.random.default_rng(1), max_speed=8.0, max_pause=40.0
        )
        world = World(Simulator(), mobility, radio_range=12.0)
        topo = world.topology

        def builds():
            return world.registry.value("topology.csr_builds")

        world.topology.link(0, 1)  # a link test needs no CSR
        assert builds() == 0
        reads = (
            lambda: world.topology.neighbors(3),
            lambda: world.topology.hops_from(3),
            world.topology.degrees,
            world.topology.csr,
            lambda: world.topology.hops_from(7),
        )
        # The link test's snapshot has no CSR yet: the first read builds
        # one even if that refresh keeps the snapshot.
        expected, kept = 1, 0
        for k, t in enumerate(np.linspace(0.25, 30.0, 120)):
            before = topo._pos.copy()
            advance(world, float(t))
            if k == 60:
                world.set_down(5)  # a changed up-set rebuilds too
            reads[k % len(reads)]()
            reads[(k + 1) % len(reads)]()
            changed = k == 60 or not np.array_equal(world.positions(), before)
            expected += changed and k > 0
            kept += not changed
        assert builds() == expected
        assert kept > 0  # some refreshes really kept their CSR

    def test_distance_cache_lru_bound(self):
        sim = Simulator()
        mobility = RandomWaypoint(30, Area(100, 100), np.random.default_rng(0))
        world = World(sim, mobility)
        world.topology.dist_cache_size = 4
        for src in range(10):
            world.topology.hops_from(src)
        assert len(world.topology._dist) == 4
        # most-recently-used sources survive
        assert set(world.topology._dist) == {6, 7, 8, 9}
        world.topology.hops_from(7)
        world.topology.hops_from(20)
        assert 7 in world.topology._dist and 6 not in world.topology._dist

    def test_dist_cache_hit_counter(self):
        worlds = make_pair(20, 1)
        w = worlds["sparse"]
        w.topology.hops_from(0)
        w.topology.hops_from(0)
        assert w.registry.value("topology.dist_cache_hits") == 1


class TestSparseOracles:
    """The vectorized CSR build and BFS equal the per-cell build and the
    per-row BFS kept in ``tests/helpers.py``."""

    @staticmethod
    def _check(world):
        topo = world.topology
        indptr, indices = topo.csr()
        ref_indptr, ref_indices = reference_sparse_csr(topo)
        np.testing.assert_array_equal(indptr, ref_indptr)
        np.testing.assert_array_equal(indices, ref_indices)
        assert indptr.dtype == indices.dtype == np.int64
        down = world.down_mask()
        for i in range(world.n):
            np.testing.assert_array_equal(
                world.topology.neighbors(i), indices[indptr[i] : indptr[i + 1]]
            )
            np.testing.assert_array_equal(
                world.topology.hops_from(i), reference_bfs(ref_indptr, ref_indices, i, down)
            )
        return indptr, indices

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_worlds_with_down_nodes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        pts = rng.random((n, 2)) * rng.uniform(30.0, 150.0)
        _, world = static_world(pts)
        for i in rng.choice(n, size=n // 6, replace=False):
            world.set_down(int(i))
        indptr, _ = self._check(world)
        assert not np.diff(indptr)[world.down_mask()].any()

    def test_pairs_at_exactly_the_radio_range(self):
        # a 10 m lattice: every axis neighbour sits exactly at range,
        # across cell borders, and the diagonals (14.1 m) fall outside
        pts = [[10.0 * x + 5.0, 10.0 * y + 5.0] for x in range(5) for y in range(4)]
        _, world = static_world(pts)
        indptr, _ = self._check(world)
        assert np.diff(indptr).tolist() == [
            (x > 0) + (x < 4) + (y > 0) + (y < 3) for x in range(5) for y in range(4)
        ]

    def test_isolated_nodes(self):
        _, world = static_world([[0.0, 0.0], [8.0, 0.0], [500.0, 500.0], [900.0, 10.0]])
        indptr, _ = self._check(world)
        assert np.diff(indptr).tolist() == [1, 1, 0, 0]

    def test_single_node(self):
        _, world = static_world([[3.0, 4.0]])
        indptr, indices = self._check(world)
        assert indptr.tolist() == [0, 0] and indices.size == 0

    def test_all_down(self):
        _, world = static_world([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        for i in range(3):
            world.set_down(i)
        indptr, indices = self._check(world)
        assert indptr.tolist() == [0, 0, 0, 0] and indices.size == 0


# one backend: the parameter only keeps these tests' ids
@pytest.mark.parametrize("backend", ["sparse"])
class TestReadOnlySnapshots:
    """Arrays a query hands out are shared snapshot state: writes raise."""

    POSITIONS = [[0.0, 0.0], [6.0, 0.0], [12.0, 0.0], [40.0, 40.0]]

    def test_cached_hop_vector(self, backend):
        _, world = static_world(self.POSITIONS)
        with pytest.raises(ValueError):
            world.topology.hops_from(0)[2] = 0
        assert world.topology.hop_distance(0, 2) == 2

    def test_adjacency_matrix(self, backend):
        _, world = static_world(self.POSITIONS)
        with pytest.raises(ValueError):
            world.topology.adjacency_matrix()[0, 3] = True
        assert not world.topology.link(0, 3)

    def test_csr_arrays(self, backend):
        _, world = static_world(self.POSITIONS)
        indptr, indices = world.topology.csr()
        with pytest.raises(ValueError):
            indptr[1] = 0
        with pytest.raises(ValueError):
            indices[0] = 3

    def test_neighbor_row(self, backend):
        _, world = static_world(self.POSITIONS)
        row = world.topology.neighbors(1)
        with pytest.raises(ValueError):  # a view of the CSR
            row[0] = 3
        assert world.topology.neighbors(1).tolist() == [0, 2]


def static_n(n):
    return Static(n, Area(), np.random.default_rng(0))


class TestFactory:
    def test_world_rejects_bad_cache_size(self):
        # The distance-cache bound is no parameter; tests set the attribute.
        with pytest.raises(TypeError):
            World(Simulator(), static_n(3), dist_cache_size=4)
        with pytest.raises(TypeError):
            TopologyBackend(World(Simulator(), static_n(3)), dist_cache_size=4)

    def test_scenario_config_topology_knob(self):
        assert ScenarioConfig().topology == "auto"
        assert ScenarioConfig(topology="auto", num_nodes=500).topology == "auto"
        for value in ("dense", "sparse", "hexgrid"):
            with pytest.raises(ValueError, match="one topology backend") as err:
                ScenarioConfig(topology=value)
            assert repr(value) in str(err.value)

    def test_cli_and_api_configs_share_run_key(self, capsys):
        # `run` used to pass topology="auto" where ScenarioConfig()
        # defaulted to "dense": one scenario, two cache keys.
        for n in (50, 450):
            assert main(["run", "--nodes", str(n), "--duration", "1", "--json"]) == 0
            cli_cfg = ScenarioConfig.from_dict(json.loads(capsys.readouterr().out)["config"])
            assert run_key(cli_cfg) == run_key(ScenarioConfig(num_nodes=n, duration=1.0))

    def test_full_scenario_identical_across_backends(self):
        # The grid is exact-equivalent to the dense oracle, so a whole
        # simulation must be bit-for-bit identical on either.
        runs = {}
        for name in ("dense", "sparse"):
            simulation = build_scenario(ScenarioConfig(duration=60.0, seed=3, routing="oracle"))
            if name == "dense":
                simulation.world.topology = DenseOracle(simulation.world)
            simulation.run()
            runs[name] = harvest(simulation)
        dense, sparse = runs["dense"], runs["sparse"]
        assert dense.totals == sparse.totals
        assert dense.events == sparse.events



class _SpyOracle(DenseOracle):
    """The dense oracle, counting the queries it answers."""

    def __init__(self, world):
        super().__init__(world)
        self.calls = dict.fromkeys(("neighbors", "link", "hop_distance"), 0)

    def neighbors(self, i):
        self.calls["neighbors"] += 1
        return super().neighbors(i)

    def link(self, i, j):
        self.calls["link"] += 1
        return super().link(i, j)

    def hop_distance(self, a, b):
        self.calls["hop_distance"] += 1
        return super().hop_distance(a, b)


@pytest.mark.parametrize(
    "overrides",
    [
        # carrier sense, the gossip degree floor, the oracle router,
        # query answers' ad-hoc distance, the radio's receiver rows
        {"mac": "csma", "rebroadcast": "probabilistic:0.5", "routing": "oracle"},
        # AODV unicasts: the radio's link test
        {"routing": "aodv"},
    ],
    ids=["csma-gossip-oracle", "ideal-aodv"],
)
def test_no_caller_caches_the_backend(overrides):
    # The equivalence tests swap ``world.topology`` on a built
    # simulation; a caller holding the old backend would make them
    # compare the grid with itself.  After the swap, the spy answers
    # every query and the replaced grid never takes a snapshot.  Queries
    # start at t = 1 s, so answers ask their ad-hoc distance too.
    query = QueryConfig(warmup=1.0, gap_min=1.0, gap_max=2.0)
    cfg = ScenarioConfig(duration=8.0, seed=1, obs_interval=2.0, query=query, **overrides)
    simulation = build_scenario(cfg)
    grid = simulation.world.topology
    spy = simulation.world.topology = _SpyOracle(simulation.world)
    simulation.run()
    harvest(simulation)
    assert grid.snapshot_time == -1.0
    asked = {"link"} if overrides["routing"] == "aodv" else {"hop_distance"}
    assert {name for name, calls in spy.calls.items() if calls} >= asked | {"neighbors"}


class TestResumableHopDistance:
    """``hop_distance`` expands a source's memoized BFS only until its
    target is labelled; ``hops_from`` finishes the same state.  Any
    interleaving of the two must equal ``reference_bfs``, on the grid and
    on the dense oracle's own level step, across churn, ``invalidate()``
    and snapshot changes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_any_interleaving_equals_reference_bfs(self, seed):
        n = 70
        worlds = make_pair(n, seed)
        rng = np.random.default_rng(seed + 7)
        partial_finished = 0
        for t in (0.0, 40.0, 40.0, 130.0, 260.0):
            for w in worlds.values():
                advance(w, t)
            i = int(rng.integers(n))
            event = rng.integers(3)
            for w in worlds.values():
                if event == 0:
                    w.set_down(i)
                elif event == 1:
                    w.set_down(i, down=False)
                else:
                    w.topology.invalidate()
            sparse = worlds["sparse"].topology
            sparse.refresh()
            indptr, indices = reference_sparse_csr(sparse)
            down = worlds["sparse"].down_mask()
            ref = {}
            # few sources, so states are revisited and resumed part way
            sources = rng.choice(n, size=5, replace=False).tolist()
            for _ in range(60):
                a, b = int(rng.choice(sources)), int(rng.integers(n))
                if a not in ref:
                    ref[a] = reference_bfs(indptr, indices, a, down)
                for w in worlds.values():
                    state = w.topology._dist.get(a)
                    partial = state is not None and state[1] is not None
                    if rng.random() < 0.7:
                        assert w.topology.hop_distance(a, b) == ref[a][b]
                        continue
                    dist = w.topology.hops_from(a)
                    np.testing.assert_array_equal(dist, ref[a])
                    assert not dist.flags.writeable
                    partial_finished += partial
        assert partial_finished > 0  # some hops_from resumed a partial state
        hits = [w.registry.value("topology.dist_cache_hits") for w in worlds.values()]
        assert hits[0] == hits[1] > 0

    def test_partial_state_then_hops_from(self):
        # a line 0 - 1 - ... - 7: asking for 1 hop expands one level only
        _, world = static_world([[8.0 * i, 0.0] for i in range(8)])
        assert world.topology.hop_distance(0, 1) == 1
        dist, frontier, depth = world.topology._dist[0]
        assert frontier is not None and depth == 1
        assert dist[2] == UNREACHABLE  # not labelled yet
        full = world.topology.hops_from(0)
        assert full.tolist() == list(range(8))
        assert not full.flags.writeable
        assert world.topology._dist[0][1] is None
        assert world.topology.hop_distance(0, 7) == 7
        # one miss, then one hit per repeated source
        assert world.registry.value("topology.dist_cache_hits") == 2

    def test_down_source_and_unreachable_target(self):
        _, world = static_world([[0.0, 0.0], [8.0, 0.0], [500.0, 0.0]])
        assert world.topology.hop_distance(0, 2) == UNREACHABLE
        assert world.topology._dist[0][1] is None  # exhausted: complete
        world.set_down(1)
        assert world.topology.hop_distance(1, 0) == UNREACHABLE
        assert world.topology.hop_distance(0, 1) == UNREACHABLE
        assert world.topology.hops_from(1).tolist() == [UNREACHABLE] * 3


# one backend: the parameter only keeps these tests' ids
@pytest.mark.parametrize("backend", ["sparse"])
class TestWorldEdgeCases:
    """World edge cases on the grid."""

    def test_snapshot_interval_reuses_within_quantum(self, backend):
        sim = Simulator()
        mobility = RandomWaypoint(20, Area(50, 50), np.random.default_rng(2), max_pause=0.5)
        world = World(sim, mobility, snapshot_interval=1.0)
        world.topology.neighbors(0)
        t0 = world.topology.snapshot_time
        rebuilds = world.registry.value("topology.rebuilds")
        advance(world, 0.5)  # inside the quantum: snapshot reused
        world.topology.neighbors(0)
        assert world.topology.snapshot_time == t0
        assert world.registry.value("topology.rebuilds") == rebuilds
        advance(world, 2.0)  # outside: recomputed
        world.topology.neighbors(0)
        assert world.topology.snapshot_time == 2.0
        assert world.registry.value("topology.rebuilds") == rebuilds + 1

    def test_invalidate_forces_recompute_same_timestamp(self, backend):
        sim = Simulator()
        mobility = RandomWaypoint(10, Area(50, 50), np.random.default_rng(3))
        world = World(sim, mobility, snapshot_interval=5.0)
        world.topology.neighbors(0)
        rebuilds = world.registry.value("topology.rebuilds")
        world.topology.invalidate()
        world.topology.neighbors(0)
        assert world.registry.value("topology.rebuilds") == rebuilds + 1

    def test_set_down_mid_snapshot(self, backend):
        # Killing a node must take effect immediately, even with a
        # coarse snapshot quantum and no clock movement.
        _, world = static_world([[0, 0], [8, 0], [16, 0]])
        world.snapshot_interval = 10.0
        assert world.topology.hop_distance(0, 2) == 2
        world.set_down(1)
        assert list(world.topology.neighbors(0)) == []
        assert not world.topology.link(0, 1)
        assert world.topology.hop_distance(0, 2) == UNREACHABLE
        assert world.topology.hops_from(1).tolist() == [UNREACHABLE] * 3
        world.set_down(1, down=False)
        assert world.topology.link(0, 1)
        assert world.topology.hop_distance(0, 2) == 2

    def test_depleted_node_excluded_from_neighbors(self, backend):
        _, world = static_world([[0, 0], [8, 0], [16, 0]], capacity=1e-4)
        assert 1 in world.topology.neighbors(0)
        world.energy.charge_tx(1, 10_000)  # drains node 1's battery
        assert list(world.topology.neighbors(0)) == []
        assert not world.topology.link(0, 1)
        assert world.topology.hop_distance(0, 2) == UNREACHABLE

    def test_backwards_clock_forces_rebuild(self, backend):
        # Two independent sims sharing nothing; a world re-queried at an
        # earlier time than its snapshot must rebuild, not reuse.
        sim = Simulator(start_time=100.0)
        mobility = RandomWaypoint(15, Area(50, 50), np.random.default_rng(4), max_pause=0.5)
        world = World(sim, mobility, snapshot_interval=1000.0)
        world.topology.neighbors(0)
        assert world.topology.snapshot_time == 100.0
        # Simulate a fresh kernel attached at an earlier clock (resume /
        # reuse patterns): snapshot time is in the future -> stale.
        world.sim = Simulator(start_time=50.0)
        world._pos_time = -1.0
        world.topology.neighbors(0)
        assert world.topology.snapshot_time == 50.0

    def test_neighbors_sorted_ascending(self, backend):
        pts = np.random.default_rng(5).random((40, 2)) * 60
        _, world = static_world(pts, radio_range=20.0)
        for i in range(40):
            nbrs = world.topology.neighbors(i)
            assert np.array_equal(nbrs, np.sort(nbrs))
