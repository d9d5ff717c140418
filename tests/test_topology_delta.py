"""Delta topology refresh is bit-identical to the full-rebuild oracle.

Every snapshot refresh diffs positions against the previous snapshot,
re-bins only nodes whose grid cell changed, and keeps the CSR /
neighbor memos / BFS distance cache alive whenever it can prove no link
flipped.  The oracle is the base-class ``TopologyBackend._update``
fallback (a from-scratch rebuild), bound onto a backend by
``helpers.pin_full_rebuild``.  These tests are the proof obligation:
full scenarios -- random-waypoint mobility, churn, finite energy,
lossy/CSMA channels, dense and sparse backends, several seeds -- must
produce *semantically* equal registry snapshots, time series, energy
ledgers and totals against the oracle (only the topology cache-effort
counters enumerated in ``repro.obs.compare.TOPOLOGY_COST_METRICS`` may
differ), plus unit coverage of the adjacency-epoch contract and of the
fixed proof gate.
"""

import numpy as np
import pytest

from repro.mobility import Area, RandomWaypoint, Static
from repro.net import World
from repro.obs.compare import (
    TOPOLOGY_COST_METRICS,
    is_cost_key,
    semantic_snapshot,
    semantic_timeseries,
    snapshot_diff,
)
from repro.scenarios.builder import build_scenario
from repro.scenarios.churn import ChurnProcess
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import harvest
from repro.sim import Simulator

from .helpers import BACKENDS, pin_backend, pin_full_rebuild

SEEDS = (1, 2, 3)


def advance(world, t):
    world.sim.schedule_at(t, lambda: None)
    world.sim.run(until=t)


def _run_lane(seed: int, topology: str, delta: bool, *, churn: bool = True):
    """One full scenario, delta refresh or the full-rebuild oracle."""
    cfg = ScenarioConfig(
        num_nodes=40,
        duration=40.0,
        seed=seed,
        # Exercise both non-ideal channels across the grid: collisions on
        # the dense backend, probabilistic loss on the sparse one.
        mac="csma" if topology == "dense" else "lossy",
        energy_capacity=0.05,
        obs_interval=10.0,
    )
    with pin_backend(topology):
        simulation = build_scenario(cfg)
    if not delta:
        pin_full_rebuild(simulation.world)
    if churn:
        ChurnProcess(
            simulation.sim,
            simulation.world,
            np.random.default_rng(10_000 + seed),
            death_rate=0.05,
            mean_downtime=10.0,
        ).start()
    simulation.run()
    result = harvest(simulation)
    return {
        "snapshot": semantic_snapshot(simulation.registry),
        "timeseries": semantic_timeseries(result.timeseries),
        "events": result.events,
        "energy": result.energy,
        "totals": result.totals,
        "moved_nodes": simulation.registry.value("topology.moved_nodes"),
        "epoch": simulation.world.adjacency_epoch,
    }


@pytest.mark.parametrize("topology", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lanes_bit_identical(seed, topology):
    full = _run_lane(seed, topology, delta=False)
    fast = _run_lane(seed, topology, delta=True)
    # Full semantic registry snapshot: equal key sets, equal values.
    assert snapshot_diff(full["snapshot"], fast["snapshot"]) == {}
    # Sampled time-series rows match bit-for-bit too.
    assert full["timeseries"] == fast["timeseries"]
    # Derived figures agree exactly.
    assert full["events"] == fast["events"]
    assert full["totals"] == fast["totals"]
    np.testing.assert_array_equal(full["energy"], fast["energy"])
    # The delta path really ran: it found movers and kept the adjacency
    # at least once; the oracle never diffed and bumped the epoch on
    # every refresh.
    assert fast["moved_nodes"] > 0
    assert fast["epoch"] < full["epoch"]
    assert full["moved_nodes"] == 0


def test_topology_cost_keys_classified():
    for name in TOPOLOGY_COST_METRICS:
        assert is_cost_key(name)
    assert is_cost_key("topology.dist_cache_hits{backend=sparse,layer=topology}")
    assert is_cost_key("graphfast.bfs_sources{layer=metrics}")
    assert is_cost_key("kernel.heap_pushes")
    assert not is_cost_key("kernel.events_dispatched")
    assert not is_cost_key("radio.frames_delivered")


# ----------------------------------------------------------------------
# adjacency-epoch contract (unit level)
# ----------------------------------------------------------------------
def _static_world(n, topology, delta=True, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * 60.0
    mobility = Static(n, Area(1000.0, 1000.0), rng, positions=pts)
    world = World(Simulator(), mobility, radio_range=12.0, topology=BACKENDS[topology])
    return world if delta else pin_full_rebuild(world)


def _waypoint_world(n, topology, delta, seed=0, *, max_pause=1.0):
    mobility = RandomWaypoint(
        n,
        Area(60.0, 60.0),
        np.random.default_rng(seed),
        max_speed=8.0,
        max_pause=max_pause,
    )
    world = World(Simulator(), mobility, radio_range=12.0, topology=BACKENDS[topology])
    return world if delta else pin_full_rebuild(world)


@pytest.mark.parametrize("topology", ["dense", "sparse"])
class TestAdjacencyEpoch:
    def test_epoch_stands_still_when_nothing_moves(self, topology):
        world = _static_world(12, topology)
        world.neighbors(0)
        e0 = world.adjacency_epoch
        for t in (1.0, 2.0, 3.0):
            advance(world, t)
            world.neighbors(0)
        # Static nodes: every refresh proves the adjacency unchanged.
        assert world.adjacency_epoch == e0
        assert world.registry.value("topology.delta_rebuilds") == 3

    def test_dist_cache_survives_static_refreshes(self, topology):
        world = _static_world(12, topology)
        world.hops_from(0)
        hits0 = world.registry.value("topology.dist_cache_hits")
        advance(world, 5.0)
        world.hops_from(0)  # same epoch: memoized vector must survive
        assert world.registry.value("topology.dist_cache_hits") == hits0 + 1

    def test_full_lane_always_advances_epoch(self, topology):
        world = _static_world(12, topology, delta=False)
        world.neighbors(0)
        e0 = world.adjacency_epoch
        advance(world, 1.0)
        world.neighbors(0)
        assert world.adjacency_epoch == e0 + 1
        assert world.registry.value("topology.moved_nodes") == 0

    def test_invalidate_advances_epoch(self, topology):
        world = _static_world(12, topology)
        world.neighbors(0)
        e0 = world.adjacency_epoch
        world.set_down(3)
        assert world.adjacency_epoch > e0

    def test_motion_that_changes_links_advances_epoch(self, topology):
        world = _waypoint_world(20, topology, delta=True, seed=2)
        world.hops_from(0)
        e0 = world.adjacency_epoch
        # 10 s at up to 8 m/s across a 60 m square must flip some link.
        advance(world, 10.0)
        world.hops_from(0)
        assert world.adjacency_epoch > e0


class TestSparseDeltaInternals:
    def test_csr_survives_static_refreshes(self):
        world = _static_world(15, "sparse")
        world.degrees()  # forces a CSR build
        builds0 = world.registry.value("topology.csr_builds")
        for t in (1.0, 2.0):
            advance(world, t)
            world.degrees()
        assert world.registry.value("topology.csr_builds") == builds0

    def test_moved_nodes_counted(self):
        world = _waypoint_world(20, "sparse", delta=True, seed=3)
        world.neighbors(0)
        advance(world, 5.0)
        world.neighbors(0)
        assert world.registry.value("topology.moved_nodes") > 0

    def test_proof_attempted_iff_cache_exists_and_few_movers(self):
        # The gate is fixed: a proof runs whenever a distance cache or
        # CSR exists and at most max(8, n // 4) up nodes moved -- no
        # back-off after failures, no adaptation after successes.
        n = 40
        world = _waypoint_world(n, "sparse", delta=True, seed=1, max_pause=40.0)
        topo = world.topology
        assert topo.max_proof_movers == max(8, n // 4) == 10
        proofs = []
        real = topo._mover_neighbor_lists

        def counted(movers, pos):
            proofs.append(len(movers))
            return real(movers, pos)

        topo._mover_neighbor_lists = counted
        world.neighbors(0)  # first snapshot, no cache yet
        expected, too_many = [], 0
        for t in np.linspace(0.25, 30.0, 120):
            cached = bool(topo._dist) or topo._csr is not None
            before = topo._pos.copy()
            advance(world, float(t))
            world.neighbors(0)
            moved = int((world.positions() != before).any(axis=1).sum())
            if moved and cached:
                if moved <= topo.max_proof_movers:
                    expected += [moved, moved]  # old and new neighbor lists
                else:
                    too_many += 1
            if t > 5.0:
                world.hops_from(0)  # from here on a cache exists
        assert proofs == expected
        # Both sides of the gate were exercised.
        assert expected and too_many


@pytest.mark.parametrize("topology", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_queries_identical_under_mobility(seed, topology):
    """Every query answer matches the full-rebuild oracle at every step."""
    fast = _waypoint_world(25, topology, delta=True, seed=seed)
    full = _waypoint_world(25, topology, delta=False, seed=seed)
    for t in np.linspace(0.5, 20.0, 14):
        advance(fast, float(t))
        advance(full, float(t))
        for i in range(25):
            np.testing.assert_array_equal(fast.neighbors(i), full.neighbors(i))
        for src in (0, 7, 19):
            np.testing.assert_array_equal(fast.hops_from(src), full.hops_from(src))
        np.testing.assert_array_equal(fast.degrees(), full.degrees())
        np.testing.assert_array_equal(fast.adjacency(), full.adjacency())


def test_lockstep_queries_identical_at_paper_density():
    """n = 600 on the sparse grid: many cells and a proof gate above 8 movers.

    Paper mobility (random waypoint, <= 1 m/s, long pauses) at paper
    density, 0.25 s snapshots; each quantum asks a few rotating
    ``neighbors()`` and BFS vectors from a small hot set, as servent
    connection maintenance does, plus the CSR-backed degree vector.
    """
    n = 600
    side = 100.0 * np.sqrt(n / 50.0)

    def world():
        mobility = RandomWaypoint(
            n, Area(side, side), np.random.default_rng(1), max_speed=1.0, max_pause=100.0
        )
        return World(Simulator(), mobility, radio_range=10.0, snapshot_interval=0.25)

    fast, full = world(), pin_full_rebuild(world())
    topo = fast.topology
    proofs = []
    real = topo._mover_neighbor_lists

    def counted(movers, pos):
        proofs.append(len(movers))
        return real(movers, pos)

    topo._mover_neighbor_lists = counted
    hot = [0, n // 7, n // 3, 2 * n // 5, n // 2, 3 * n // 5, 3 * n // 4, n - 1]
    for step in range(1, 41):
        t = step * 0.25
        advance(fast, t)
        advance(full, t)
        for k in range(4):
            i = (step * 4 + k) % n
            np.testing.assert_array_equal(fast.neighbors(i), full.neighbors(i))
        for k in range(2):
            src = hot[(step * 2 + k) % len(hot)]
            np.testing.assert_array_equal(fast.hops_from(src), full.hops_from(src))
        np.testing.assert_array_equal(fast.degrees(), full.degrees())
    # Proofs ran with more movers than the small-n gate of 8 allows, and
    # at least one kept the adjacency.
    assert topo.max_proof_movers > 8 and max(proofs) > 8
    assert fast.adjacency_epoch < full.adjacency_epoch
