"""Scaling benchmark: the grid topology backend at n = 500.

Runs a fixed neighbors + BFS + hop-distance workload at *bounded node
density* -- the deployment area grows with n so the mean radio degree
stays at the paper's ~1.6 -- and records the grid backend's wall-clock
timings at n = 500, where a dense O(n²) snapshot stops being viable and
the grid stays O(n·k).  The hop-distance pass asks for targets 1..6 hops
out on a fresh distance cache, so it times the early-exit BFS.  The grid
must finish inside a 60 s wall-clock guard, so a substrate regression
fails loudly; the dense-matrix oracle (``tests.helpers.DenseOracle``)
replays the workload untimed as a check of its aggregate connectivity
and of every hop distance.

Timings are printed as a table (run with ``pytest -s``) so the numbers
are recorded in the job log.
"""

import time

import numpy as np

from repro.mobility import Area, RandomWaypoint
from repro.net import World
from repro.sim import Simulator
from tests.helpers import DenseOracle

#: paper density: 50 nodes on 100 m x 100 m -> 200 m² per node
AREA_PER_NODE = 200.0
RADIO_RANGE = 10.0
TIMESTAMPS = (0.0, 60.0, 120.0)
BFS_SOURCES = 25
#: hop_distance targets sit 1..6 hops out, where the queries' answers are
MAX_TARGET_HOPS = 6
BENCH_N = 500
GUARD_S = 60.0


def make_world(n: int) -> World:
    side = float(np.sqrt(n * AREA_PER_NODE))
    sim = Simulator()
    mobility = RandomWaypoint(n, Area(side, side), np.random.default_rng(7))
    return World(sim, mobility, radio_range=RADIO_RANGE)


def run_workload(world: World) -> dict:
    """Neighbors for every node, BFS from a source sample, then
    ``hop_distance`` from the same sources to one target per distance
    1..MAX_TARGET_HOPS (fresh distance cache, so each call expands only
    as far as its target), 3 snapshots."""
    n = world.n
    sources = np.linspace(0, n - 1, BFS_SOURCES, dtype=int).tolist()
    t_neighbors = t_bfs = t_hop = 0.0
    degree_total = 0
    hop_pairs = []
    for ts in TIMESTAMPS:
        world.sim.schedule_at(ts, lambda: None)
        world.sim.run(until=ts)
        start = time.perf_counter()
        for i in range(n):
            degree_total += len(world.topology.neighbors(i))
        t_neighbors += time.perf_counter() - start
        start = time.perf_counter()
        dists = [world.topology.hops_from(s) for s in sources]
        t_bfs += time.perf_counter() - start
        # the lowest id at each distance (untimed), as the queries' answers sit
        pairs = [
            (s, int(np.flatnonzero(dist == d)[0]), d)
            for s, dist in zip(sources, dists)
            for d in range(1, MAX_TARGET_HOPS + 1)
            if (dist == d).any()
        ]
        world.topology.clear_distance_cache()
        start = time.perf_counter()
        got = [world.topology.hop_distance(s, t) for s, t, _ in pairs]
        t_hop += time.perf_counter() - start
        assert got == [d for _, _, d in pairs]
        hop_pairs += pairs
    return {
        "neighbors_s": t_neighbors,
        "bfs_s": t_bfs,
        "hop_distance_s": t_hop,
        "total_s": t_neighbors + t_bfs + t_hop,
        "mean_degree": degree_total / (n * len(TIMESTAMPS)),
        "hop_pairs": hop_pairs,
    }


def test_topology_scaling():
    grid = run_workload(make_world(BENCH_N))
    print("\ntopology scaling (fixed density, {} snapshots, {} BFS sources):".format(
        len(TIMESTAMPS), BFS_SOURCES
    ))
    print(
        f"grid n={BENCH_N:<5d} neighbors={grid['neighbors_s']*1e3:9.1f}ms "
        f"bfs={grid['bfs_s']*1e3:9.1f}ms "
        f"hop_distance={grid['hop_distance_s']*1e3:9.1f}ms "
        f"({len(grid['hop_pairs'])} pairs) total={grid['total_s']*1e3:9.1f}ms "
        f"degree={grid['mean_degree']:.2f}"
    )

    # The substrate-regression alarm: the grid must complete the
    # workload inside the wall-clock guard.
    assert grid["total_s"] < GUARD_S, (
        f"grid backend took {grid['total_s']:.1f}s at n={BENCH_N}, "
        f"guard is {GUARD_S:.0f}s"
    )
    # Density is actually bounded (the benchmark measures what it claims).
    assert grid["mean_degree"] < 5.0, grid["mean_degree"]

    # The dense oracle agrees on the workload's aggregate connectivity and
    # on every (source, target, hops) of the hop_distance pass -- a cheap
    # cross-check that we timed the work we claim.
    world = make_world(BENCH_N)
    world.topology = DenseOracle(world)
    dense = run_workload(world)
    assert abs(dense["mean_degree"] - grid["mean_degree"]) < 1e-12
    assert dense["hop_pairs"] == grid["hop_pairs"]
    assert {d for _, _, d in grid["hop_pairs"]} == set(range(1, MAX_TARGET_HOPS + 1))


def test_sparse_scales_past_dense():
    """At n=2000 the grid's per-snapshot footprint is O(n·k), not O(n²).

    A dense snapshot alone allocates an (n, n) boolean plus an (n, n)
    float distance pass -- ~36 MB of transient arrays at n=2000 and
    ~900 MB at n=10000.  The grid + CSR for the same graph is a few
    hundred KB.  We assert the structural fact (CSR size tracks edges,
    not n²) rather than machine-dependent RSS.
    """
    n = 2000
    world = make_world(n)
    world.topology.hops_from(0)  # forces grid + CSR build
    topo = world.topology
    indptr, indices = topo._require_csr()
    edges = len(indices)
    assert indptr.shape == (n + 1,)
    # bounded density: edge count is O(n), nowhere near the n² regime
    assert edges < 10 * n
