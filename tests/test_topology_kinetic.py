"""The snapshot refresh rule under sustained motion, deaths and clock jumps.

These regressions were written for the kinetic (horizon-driven) refresh
path that used to sit beside the delta path; both are gone, and a stale
snapshot is now kept when neither the positions nor the down mask
changed and rebuilt otherwise.  Each check runs that rule in lockstep
against the full-rebuild oracle (``helpers.pin_full_rebuild``):

* lockstep query identity at every step under sustained mobility, also
  against the dense matrix (``helpers.DenseOracle``);
* a node dying (churn or energy depletion) must drop the snapshot and
  its distance cache and disappear from answers immediately;
* a mobility source that publishes nothing but ``positions(t)`` is
  enough for the refresh rule;
* a backwards clock jump is answered from fresh positions.
"""

import numpy as np
import pytest

from repro.mobility import Area, RandomWaypoint
from repro.net import World
from repro.obs.compare import semantic_snapshot, snapshot_diff
from repro.scenarios.builder import build_scenario
from repro.scenarios.churn import ChurnProcess
from repro.scenarios.config import ScenarioConfig
from repro.sim import Simulator

from .helpers import adjacency_matrix, pin_full_rebuild, pin_oracle

SEEDS = (1, 2, 3)


def advance(world, t):
    world.sim.schedule_at(t, lambda: None)
    world.sim.run(until=t)


def _waypoint_world(
    n,
    full=False,
    seed=0,
    *,
    max_speed=8.0,
    min_speed=2.0,
    max_pause=1.0,
):
    mobility = RandomWaypoint(
        n,
        Area(60.0, 60.0),
        np.random.default_rng(seed),
        max_speed=max_speed,
        min_speed=min_speed,
        max_pause=max_pause,
    )
    world = World(Simulator(), mobility, radio_range=12.0)
    return pin_full_rebuild(world) if full else world


@pytest.mark.parametrize("oracle", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_queries_identical_under_mobility(seed, oracle):
    """Every query answer matches the oracle at every step."""
    fast = _waypoint_world(25, seed=seed)
    full = pin_oracle(_waypoint_world(25, seed=seed), oracle)
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


class TestDeathBeforePredictedCrossing:
    def test_churn_death_disarms_horizons_and_bumps_epoch(self):
        # Long pauses: the early refreshes move nobody and keep the snapshot.
        world = _waypoint_world(12, seed=5, max_pause=200.0)
        world.topology.hops_from(0)
        advance(world, 0.1)
        world.topology.neighbors(0)
        builds0 = world.registry.value("topology.csr_builds")
        hits0 = world.registry.value("topology.dist_cache_hits")
        victim = int(world.topology.neighbors(0)[0]) if world.topology.neighbors(0).size else 1
        world.set_down(victim)
        # The death dropped the snapshot and its distance cache, and the
        # node vanishes from answers immediately.
        assert world.topology._snap_time == -1.0
        advance(world, 0.2)
        assert victim not in world.topology.neighbors(0)
        world.topology.hops_from(0)
        assert world.registry.value("topology.dist_cache_hits") == hits0
        assert world.topology.hops_from(victim).max() == -1  # UNREACHABLE everywhere
        # The refresh after the death rebuilt; the next one, with nobody
        # moving, keeps that snapshot's CSR.
        builds = world.registry.value("topology.csr_builds")
        assert builds == builds0 + 1
        advance(world, 0.3)
        world.topology.neighbors(0)
        assert world.registry.value("topology.csr_builds") == builds
        assert victim not in world.topology.neighbors(0)

    def test_energy_depletion_death_matches_full_lane(self):
        # Finite energy + churn, lockstep against the oracle: depletion
        # deaths arrive via invalidate() and must never leave a stale
        # snapshot behind.
        def build(full):
            cfg = ScenarioConfig(
                num_nodes=30,
                duration=30.0,
                seed=2,
                energy_capacity=0.02,
            )
            simulation = build_scenario(cfg)
            if full:
                pin_full_rebuild(simulation.world)
            churn = ChurnProcess(
                simulation.sim,
                simulation.world,
                np.random.default_rng(77),
                death_rate=0.1,
                mean_downtime=5.0,
            )
            churn.start()
            return simulation, churn

        (fast, fast_churn), (full, _) = build(False), build(True)
        fast.run()
        full.run()
        assert (
            snapshot_diff(
                semantic_snapshot(fast.registry), semantic_snapshot(full.registry)
            )
            == {}
        )
        # Deaths really happened (some may have been revived again --
        # the counter, not the final mask, is the witness).
        assert fast_churn.deaths > 0


class TestGracefulDegradation:
    def test_mobility_without_horizons_falls_back_to_delta(self):
        class Trace:  # minimal mobility source: positions(t) and n only
            def __init__(self, n):
                self.n = n
                self._base = np.linspace(0.0, 50.0, 2 * n).reshape(n, 2)

            def positions(self, t):
                return self._base + 0.01 * t

        world = World(Simulator(), Trace(10), radio_range=12.0)
        world.topology.neighbors(0)
        for t in (1.0, 2.0):
            advance(world, t)
            world.topology.neighbors(0)
        # Every node moved each time, so every refresh rebuilt and each
        # read saw a fresh CSR.
        assert world.registry.value("topology.rebuilds") == 3
        assert world.registry.value("topology.csr_builds") == 3

    def test_backwards_clock_takes_the_safe_path(self):
        world = _waypoint_world(10, seed=3)
        advance(world, 5.0)
        world.topology.neighbors(0)
        ref = _waypoint_world(10, full=True, seed=3)
        advance(ref, 5.0)
        ref.topology.neighbors(0)
        # A backwards jump must be answered from positions at the new
        # time (the kernel never rewinds on its own; poke the clock).
        world.sim._now = 2.0
        ref.sim._now = 2.0
        for i in range(10):
            np.testing.assert_array_equal(world.topology.neighbors(i), ref.topology.neighbors(i))
