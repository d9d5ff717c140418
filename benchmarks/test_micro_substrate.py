"""Micro-benchmarks of the hot substrate paths.

These are classic pytest-benchmark timings (many rounds) of the
operations DESIGN.md §5 identifies as performance-critical: vectorized
position evaluation, the connectivity snapshot (the full adjacency at
n = 150, and the rebuild + CSR the paper world (n = 50) and the metro
rung (n = 10 000) pay every 0.25 s), the vectorized BFS and the event
queue (throughput, cancellation churn, the hold model at the bench
workloads' queue depths through the heap's ``schedule`` and the FIFO's
``post_at``, and bare ``schedule`` pushes at the metro depth).  They exist to
catch performance regressions, not paper claims.
"""

import numpy as np
import pytest

from repro.mobility import Area, RandomWaypoint
from repro.net import World
from repro.sim import Simulator


def count(sim, name):
    """A ``kernel.*`` counter, read from the simulator's registry."""
    return sim.registry.value(f"kernel.{name}")


def make_world(n=150, seed=0):
    sim = Simulator()
    mobility = RandomWaypoint(n, Area(100, 100), np.random.default_rng(seed))
    return sim, World(sim, mobility, radio_range=10.0)


def test_positions_evaluation(benchmark):
    sim, world = make_world()
    t = [0.0]

    def step():
        t[0] += 1.0
        return world.mobility.positions(t[0])

    result = benchmark(step)
    assert result.shape == (150, 2)


def test_adjacency_snapshot(benchmark):
    sim, world = make_world()
    t = [0.0]

    def step():
        # advance the clock so the cache cannot short-circuit
        t[0] += 1.0
        sim.schedule_at(t[0], lambda: None)
        sim.run(until=t[0])
        return world.topology.csr()

    indptr, _ = benchmark(step)
    assert len(indptr) == 151


def test_bfs_all_distances(benchmark):
    sim, world = make_world()
    world.topology.csr()

    def bfs():
        world.topology.clear_distance_cache()
        return world.topology.hops_from(0)

    d = benchmark(bfs)
    assert len(d) == 150


def test_kernel_event_throughput(benchmark):
    def dispatch_10k():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i % 97) / 97.0, lambda: None)
        sim.run()
        return count(sim, "events_dispatched")

    n = benchmark(dispatch_10k)
    assert n == 10_000


# Queue-op throughput with cancellation.
QUEUE_BENCH_N = 10_000


def _queue_churn(n=QUEUE_BENCH_N):
    """Push n events (LCG delays), cancel every 4th, drain the rest."""
    sim = Simulator()
    state = 1
    handles = []
    for _ in range(n):
        state = (state * 1103515245 + 12345) % (1 << 31)
        handles.append(sim.schedule(state / (1 << 31) * 100.0, lambda: None))
    for ev in handles[::4]:
        ev.cancel()
    sim.run()
    return sim


def test_queue_ops(benchmark):
    sim = benchmark(_queue_churn)
    assert sim.pending() == 0
    assert count(sim, "events_dispatched") + count(sim, "events_skipped") == QUEUE_BENCH_N


def _flood_round(batched):
    from repro.mobility import Static
    from repro.net import Channel, FloodManager
    from tests.helpers import pin_per_copy_delivery

    sim = Simulator()
    mobility = Static(150, Area(100, 100), np.random.default_rng(1))
    world = World(sim, mobility)
    channel = Channel(sim, world)
    if not batched:
        pin_per_copy_delivery(channel)
    flood = FloodManager(channel, "bench.flood")
    for origin in range(0, 150, 15):
        flood.originate(origin, payload=origin, nhops=3)
        sim.run()
    return sim


def test_broadcast_fanout_reference(benchmark):
    sim = benchmark(lambda: _flood_round(batched=False))
    assert count(sim, "events_dispatched") > 0


def test_broadcast_fanout_batched(benchmark):
    # Same floods with batched delivery: identical events_dispatched,
    # far fewer heap pushes (the quantity bench/ reports as sim.heap_pushes).
    sim = benchmark(lambda: _flood_round(batched=True))
    ref = _flood_round(batched=False)
    assert count(sim, "events_dispatched") == count(ref, "events_dispatched")
    assert count(sim, "heap_pushes") < count(ref, "heap_pushes")


# Hold model: every dispatched event schedules one successor, so the
# queue stays at its starting depth.  The depths are ``sim.peak_pending``
# of the bench's paper_table2 and metro_mobility workloads.
HOLD_DEPTHS = (225, 20_731)
HOLD_OPS = 20_000


def _hold_queue(depth):
    """A simulator holding ``depth`` self-rescheduling events (LCG delays)."""
    sim = Simulator()
    state = [1]

    def hold():
        state[0] = (state[0] * 1103515245 + 12345) % (1 << 31)
        sim.schedule(state[0] / (1 << 31), hold)

    for _ in range(depth):
        hold()
    return (sim,), {}


def _hold_ops(sim):
    sim.run(max_events=HOLD_OPS)
    return sim


@pytest.mark.parametrize("depth", HOLD_DEPTHS)
def test_kernel_hold(benchmark, depth):
    sim = benchmark.pedantic(_hold_ops, setup=lambda: _hold_queue(depth), rounds=10)
    assert sim.pending() == depth
    assert count(sim, "events_dispatched") == HOLD_OPS


def _schedule_timers(sim):
    """HOLD_OPS timers pushed through ``schedule`` (LCG delays), nothing
    dispatched: the push alone, at the queue's depth."""
    state = [7]
    noop = _noop
    for _ in range(HOLD_OPS):
        state[0] = (state[0] * 1103515245 + 12345) % (1 << 31)
        sim.schedule(state[0] / (1 << 31), noop)
    return sim


def _noop():
    pass


def test_kernel_schedule(benchmark):
    # The metro_mobility rung's timer pushes: schedule() at its queue depth.
    depth = HOLD_DEPTHS[-1]
    sim = benchmark.pedantic(
        _schedule_timers, setup=lambda: _hold_queue(depth), rounds=10
    )
    assert sim.pending() == depth + HOLD_OPS
    assert count(sim, "heap_pushes") == depth + HOLD_OPS


def _post_hold_queue(depth):
    """The hold model through ``post_at``: a constant delay and no
    handles, like the radio's copies, so every successor lands at the
    tail of the kernel's FIFO and none on its heap."""
    sim = Simulator()

    def hold():
        sim.post_at(sim.now + 1.0, hold)

    for i in range(depth):
        sim.post_at(i / depth, hold)
    return (sim,), {}


@pytest.mark.parametrize("depth", HOLD_DEPTHS)
def test_kernel_post_hold(benchmark, depth):
    sim = benchmark.pedantic(_hold_ops, setup=lambda: _post_hold_queue(depth), rounds=10)
    ref = _hold_ops(*_hold_queue(depth)[0])
    assert sim.pending() == ref.pending() == depth
    assert count(sim, "events_dispatched") == count(ref, "events_dispatched") == HOLD_OPS
    assert not sim._heap


def test_snapshot_rebuild_csr_n50(benchmark):
    # The paper world's per-snapshot cost: positions, grid keys and the
    # CSR of 50 nodes at Table-2 density, one snapshot per round, 0.25 s
    # (the scenarios' snapshot quantum) after the last.
    sim = Simulator()
    mobility = RandomWaypoint(50, Area(100, 100), np.random.default_rng(1))
    world = World(sim, mobility, radio_range=10.0)

    def snapshot():
        sim.run(until=sim.now + 0.25)
        return world.topology.csr()

    indptr, _ = benchmark(snapshot)
    assert len(indptr) == 51
    # every round moved a node: each snapshot rebuilt and built its CSR
    value = world.registry.value
    assert value("topology.csr_builds", layer="topology") == value(
        "topology.rebuilds", layer="topology"
    )


def test_snapshot_csr_metro(benchmark):
    # The metro_mobility rung's per-snapshot cost: n = 10 000 at the
    # paper's density and speed (<= 1 m/s), 20 consecutive snapshots
    # 0.25 s apart per round, each building its CSR.  Most reuse the last
    # sweep's candidate pairs.
    import math

    n = 10_000
    side = 100.0 * math.sqrt(n / 50.0)
    sim = Simulator()
    mobility = RandomWaypoint(n, Area(side, side), np.random.default_rng(1))
    world = World(sim, mobility, radio_range=10.0)
    topology = world.topology
    sweeps = [0]
    sweep = topology._sweep

    def counted():
        sweeps[0] += 1
        sweep()

    topology._sweep = counted

    def snapshots():
        for _ in range(20):
            sim.run(until=sim.now + 0.25)
            topology.csr()

    benchmark.pedantic(snapshots, rounds=3)
    value = world.registry.value
    builds = value("topology.csr_builds", layer="topology")
    assert builds == value("topology.rebuilds", layer="topology") == 60
    assert 0 < sweeps[0] < builds


def test_build_scenario_metro(benchmark):
    # The metro_mobility rung's set-up: n = 10 000 at the paper's density,
    # queries off.  The build parks the cyclic collector and creates no
    # member's query stream: 7 500 algorithm streams plus mobility,
    # membership, files and qualifiers.
    import gc
    import math

    from repro.scenarios import ScenarioConfig, build_scenario

    side = 100.0 * math.sqrt(10_000 / 50.0)
    cfg = ScenarioConfig(
        num_nodes=10_000, area_width=side, area_height=side, queries=False,
        duration=5.0, seed=1,
    )
    enabled = gc.isenabled()
    simulation = benchmark.pedantic(build_scenario, args=(cfg,), rounds=3)
    assert gc.isenabled() == enabled
    assert len(simulation.rng._streams) == 7504


def test_harvest_metro(benchmark):
    # The metro_mobility rung's harvest: a finished n = 10 000 run at the
    # paper's density, queries off, seed 1, harvested and exported.  Its
    # overlay is mostly isolated members and small components, so the
    # path-length sweep works only on the components' rows.
    import math

    from repro.metrics.graphfast import path_length_sums
    from repro.scenarios import ScenarioConfig, build_scenario
    from repro.scenarios.runner import harvest

    side = 100.0 * math.sqrt(10_000 / 50.0)
    simulation = build_scenario(
        ScenarioConfig(
            num_nodes=10_000, area_width=side, area_height=side, queries=False,
            duration=5.0, seed=1,
        )
    )
    simulation.run()
    result = benchmark.pedantic(
        lambda: harvest(simulation).to_dict(), rounds=5
    )
    assert path_length_sums(*simulation.overlay.csr()) == (24_956, 14_634)
    assert result["overlay_stats"]["path_length"] == 24_956 / 14_634
