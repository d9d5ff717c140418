"""The snapshot refresh rule is bit-identical to its oracles.

A stale snapshot is kept -- CSR, ``link`` lists and BFS distance cache
included -- when neither the positions nor the down mask changed, and
rebuilt from scratch otherwise.  The oracles are the grid rebuilt from
scratch on every refresh (``helpers.pin_full_rebuild``) and the dense
matrix (``helpers.DenseOracle``).  Full scenarios -- random-waypoint
mobility, churn, finite energy, lossy/CSMA channels, several seeds --
must produce *semantically* equal registry snapshots, time series,
energy ledgers and totals against an oracle (only the topology
cache-effort counters enumerated in
``repro.obs.compare.TOPOLOGY_COST_METRICS`` may differ).  The unit tests
check, in a dense and a sparse deployment, when a snapshot generation
(its "epoch": one CSR and one distance cache) survives a refresh, read
through ``topology.csr_builds`` and ``topology.dist_cache_hits``.
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

from .helpers import adjacency_matrix, pin_full_rebuild, pin_oracle

SEEDS = (1, 2, 3)


def advance(world, t):
    world.sim.schedule_at(t, lambda: None)
    world.sim.run(until=t)


def _run_lane(seed: int, oracle: str, delta: bool, *, churn: bool = True):
    """One full scenario, the refresh rule or the ``oracle`` lane."""
    cfg = ScenarioConfig(
        num_nodes=40,
        duration=40.0,
        seed=seed,
        # Exercise both non-ideal channels: collisions against the dense
        # oracle, probabilistic loss against the full rebuild.
        mac="csma" if oracle == "dense" else "lossy",
        energy_capacity=0.05,
        obs_interval=10.0,
    )
    simulation = build_scenario(cfg)
    if not delta:
        pin_oracle(simulation.world, oracle)
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
    }


@pytest.mark.parametrize("oracle", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lanes_bit_identical(seed, oracle):
    full = _run_lane(seed, oracle, delta=False)
    fast = _run_lane(seed, oracle, delta=True)
    # Full semantic registry snapshot: equal key sets, equal values.
    assert snapshot_diff(full["snapshot"], fast["snapshot"]) == {}
    # Sampled time-series rows match bit-for-bit too.
    assert full["timeseries"] == fast["timeseries"]
    # Derived figures agree exactly.
    assert full["events"] == fast["events"]
    assert full["totals"] == fast["totals"]
    np.testing.assert_array_equal(full["energy"], fast["energy"])


def test_topology_cost_keys_classified():
    for name in TOPOLOGY_COST_METRICS:
        assert is_cost_key(name)
    assert is_cost_key("topology.dist_cache_hits{layer=topology}")
    assert is_cost_key("graphfast.bfs_sources{layer=metrics}")
    assert is_cost_key("kernel.heap_pushes")
    assert not is_cost_key("kernel.events_dispatched")
    assert not is_cost_key("radio.frames_delivered")


# ----------------------------------------------------------------------
# keep-or-rebuild contract (unit level)
# ----------------------------------------------------------------------
def _static_world(n, delta=True, seed=0, *, side=60.0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * side
    mobility = Static(n, Area(1000.0, 1000.0), rng, positions=pts)
    world = World(Simulator(), mobility, radio_range=12.0)
    return world if delta else pin_full_rebuild(world)


def _waypoint_world(n, delta, seed=0, *, max_pause=1.0, side=60.0):
    mobility = RandomWaypoint(
        n,
        Area(side, side),
        np.random.default_rng(seed),
        max_speed=8.0,
        max_pause=max_pause,
    )
    world = World(Simulator(), mobility, radio_range=12.0)
    return world if delta else pin_full_rebuild(world)


def _csr_builds(world):
    return world.registry.value("topology.csr_builds")


def _dist_hits(world):
    return world.registry.value("topology.dist_cache_hits")


# deployment sides at radio range 12 m: every node within one 3x3 cell
# block ("dense") or spread over many cells ("sparse")
@pytest.mark.parametrize("side", [15.0, 60.0], ids=["dense", "sparse"])
class TestAdjacencyEpoch:
    def test_epoch_stands_still_when_nothing_moves(self, side):
        world = _static_world(12, side=side)
        world.topology.neighbors(0)
        builds0 = _csr_builds(world)
        for t in (1.0, 2.0, 3.0):
            advance(world, t)
            world.topology.neighbors(0)
        # Static nodes: every refresh keeps the snapshot and its CSR.
        assert _csr_builds(world) == builds0 == 1
        assert world.registry.value("topology.rebuilds") == 4

    def test_dist_cache_survives_static_refreshes(self, side):
        world = _static_world(12, side=side)
        world.topology.hops_from(0)
        hits0 = _dist_hits(world)
        advance(world, 5.0)
        world.topology.hops_from(0)  # kept snapshot: memoized vector must survive
        assert _dist_hits(world) == hits0 + 1

    def test_full_lane_always_advances_epoch(self, side):
        world = _static_world(12, delta=False, side=side)
        world.topology.hops_from(0)
        builds0, hits0 = _csr_builds(world), _dist_hits(world)
        advance(world, 1.0)
        world.topology.hops_from(0)
        assert _csr_builds(world) == builds0 + 1
        assert _dist_hits(world) == hits0

    def test_invalidate_advances_epoch(self, side):
        world = _static_world(12, side=side)
        world.topology.hops_from(0)
        builds0, hits0 = _csr_builds(world), _dist_hits(world)
        world.set_down(3)
        assert world.topology._snap_time == -1.0
        # Same clock, same positions: the death alone forces a rebuild.
        world.topology.hops_from(0)
        assert _csr_builds(world) == builds0 + 1
        assert _dist_hits(world) == hits0
        assert 3 not in world.topology.neighbors(0)

    def test_motion_that_changes_links_advances_epoch(self, side):
        world = _waypoint_world(20, delta=True, seed=2, side=side)
        world.topology.hops_from(0)
        builds0, hits0 = _csr_builds(world), _dist_hits(world)
        # 10 s at up to 8 m/s across the square moves nodes.
        advance(world, 10.0)
        world.topology.hops_from(0)
        assert _csr_builds(world) == builds0 + 1
        assert _dist_hits(world) == hits0


class TestSparseDeltaInternals:
    def test_csr_survives_static_refreshes(self):
        world = _static_world(15)
        world.topology.degrees()  # forces a CSR build
        builds0 = _csr_builds(world)
        for t in (1.0, 2.0):
            advance(world, t)
            world.topology.degrees()
        assert _csr_builds(world) == builds0


@pytest.mark.parametrize("oracle", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_queries_identical_under_mobility(seed, oracle):
    """Every query answer matches the oracle at every step."""
    fast = _waypoint_world(25, delta=True, seed=seed)
    full = pin_oracle(_waypoint_world(25, delta=True, seed=seed), oracle)
    for t in np.linspace(0.5, 20.0, 14):
        advance(fast, float(t))
        advance(full, float(t))
        for i in range(25):
            np.testing.assert_array_equal(fast.topology.neighbors(i), full.topology.neighbors(i))
        for src in (0, 7, 19):
            np.testing.assert_array_equal(
                fast.topology.hops_from(src), full.topology.hops_from(src)
            )
        np.testing.assert_array_equal(fast.topology.degrees(), full.topology.degrees())
        np.testing.assert_array_equal(
            adjacency_matrix(fast.topology), adjacency_matrix(full.topology)
        )


def test_lockstep_queries_identical_at_paper_density():
    """n = 600 on the grid: many cells, movers in nearly every quantum.

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
    hot = [0, n // 7, n // 3, 2 * n // 5, n // 2, 3 * n // 5, 3 * n // 4, n - 1]
    for step in range(1, 41):
        t = step * 0.25
        advance(fast, t)
        advance(full, t)
        for k in range(4):
            i = (step * 4 + k) % n
            np.testing.assert_array_equal(fast.topology.neighbors(i), full.topology.neighbors(i))
        for k in range(2):
            src = hot[(step * 2 + k) % len(hot)]
            np.testing.assert_array_equal(
                fast.topology.hops_from(src), full.topology.hops_from(src)
            )
        np.testing.assert_array_equal(fast.topology.degrees(), full.topology.degrees())
