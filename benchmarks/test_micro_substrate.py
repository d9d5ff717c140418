"""Micro-benchmarks of the hot substrate paths.

These are classic pytest-benchmark timings (many rounds) of the three
operations DESIGN.md §5 identifies as performance-critical: vectorized
position evaluation, the O(n^2) adjacency snapshot, and the vectorized
BFS.  They exist to catch performance regressions, not paper claims.
"""

import numpy as np

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
        return world.adjacency()

    adj = benchmark(step)
    assert adj.shape == (150, 150)


def test_bfs_all_distances(benchmark):
    sim, world = make_world()
    world.adjacency()

    def bfs():
        world.topology.clear_distance_cache()
        return world.hops_from(0)

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
