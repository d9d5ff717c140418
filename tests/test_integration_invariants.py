"""Long-running integration invariants across full scenarios.

These run each algorithm end-to-end on a paper-like (scaled) scenario
and check properties that must hold throughout: capacity caps, symmetry
convergence, distance bounds, metric consistency.
"""

import numpy as np
import pytest

from repro.scenarios import ScenarioConfig, build_scenario


ALGS = ("basic", "regular", "random", "hybrid")


@pytest.mark.parametrize("alg", ALGS)
def test_capacity_never_exceeded_throughout(alg):
    cfg = ScenarioConfig(num_nodes=30, duration=400.0, algorithm=alg, seed=19)
    s = build_scenario(cfg)
    s.overlay.start()
    for t in np.arange(50.0, 401.0, 50.0):
        s.sim.run(until=float(t))
        for servent in s.overlay.servents.values():
            assert servent.connections.count <= cfg.p2p.max_connections


@pytest.mark.parametrize("alg", ("regular", "random"))
def test_symmetric_references_converge(alg):
    # At any sampling instant, asymmetric pairs must be a small minority
    # (transient handshakes / closures in flight).
    cfg = ScenarioConfig(num_nodes=30, duration=400.0, algorithm=alg, seed=23, queries=False)
    s = build_scenario(cfg)
    s.overlay.start(queries=False)
    s.sim.run(until=400.0)
    total = asym = 0
    for servent in s.overlay.servents.values():
        for conn in servent.connections:
            total += 1
            other = s.overlay.servents.get(conn.peer)
            if other is None or not other.connections.has(servent.nid):
                asym += 1
    if total:
        assert asym / total < 0.35, f"{asym}/{total} asymmetric references"


def test_metrics_totals_equal_per_node_sums():
    cfg = ScenarioConfig(num_nodes=25, duration=300.0, algorithm="regular", seed=29)
    s = build_scenario(cfg)
    s.overlay.start()
    s.sim.run(until=300.0)
    for fam in ("connect", "ping", "query"):
        counts = s.metrics.family_counts(fam)
        assert counts.sum() == s.metrics.total(fam)
        # only members receive p2p messages
        non_members = [i for i in range(cfg.num_nodes) if i not in s.members]
        assert counts[non_members].sum() == 0


def test_energy_strictly_increases_with_activity():
    cfg = ScenarioConfig(num_nodes=25, duration=300.0, algorithm="basic", seed=31)
    s = build_scenario(cfg)
    s.overlay.start()
    s.sim.run(until=150.0)
    e1 = s.world.energy.total_consumed()
    s.sim.run(until=300.0)
    e2 = s.world.energy.total_consumed()
    assert 0 < e1 < e2


@pytest.mark.parametrize("alg", ("regular", "random"))
def test_connections_respect_distance_bound_modulo_transients(alg):
    # Sampled at ping-interval granularity, connected peers should sit
    # within the allowed distance most of the time (mobility can drag
    # them out between maintenance rounds).
    cfg = ScenarioConfig(num_nodes=40, duration=500.0, algorithm=alg, seed=37, queries=False)
    s = build_scenario(cfg)
    s.overlay.start(queries=False)
    ok = too_far = 0
    for t in np.arange(100.0, 501.0, 50.0):
        s.sim.run(until=float(t))
        for servent in s.overlay.servents.values():
            for conn in servent.connections:
                allowed = cfg.p2p.max_dist * (2 if conn.random else 1)
                d = s.world.topology.hop_distance(servent.nid, conn.peer)
                if 0 < d <= allowed:
                    ok += 1
                elif d > allowed:
                    too_far += 1
    total = ok + too_far
    if total:
        assert too_far / total < 0.40, f"{too_far}/{total} beyond MAXDIST"
