"""Tests for the churn (death/birth) process."""

import numpy as np
import pytest

from repro.scenarios import ChurnProcess, ScenarioConfig, build_scenario

from .helpers import make_world


def timeline(churn):
    """The churn history as ``(time, node, kind)`` tuples."""
    return [(e.time, e.node, e.kind) for e in churn.events]


def make_churn(death_rate, mean_downtime=10.0, n=5, immune=(), seed=0):
    positions = [[10.0 + 5 * i, 10.0] for i in range(n)]
    sim, world, _ = make_world(positions)
    churn = ChurnProcess(
        sim,
        world,
        np.random.default_rng(seed),
        death_rate=death_rate,
        mean_downtime=mean_downtime,
        immune=immune,
    )
    return sim, world, churn


class TestChurnProcess:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_churn(death_rate=-1.0)
        with pytest.raises(ValueError):
            make_churn(death_rate=0.1, mean_downtime=0.0)

    def test_zero_rate_is_noop(self):
        sim, world, churn = make_churn(death_rate=0.0)
        churn.start()
        sim.run(until=500.0)
        assert churn.deaths == 0
        assert all(world.is_up(i) for i in range(world.n))

    def test_deaths_happen_at_expected_scale(self):
        sim, world, churn = make_churn(death_rate=0.1, mean_downtime=1e9, n=100)
        churn.start()
        sim.run(until=200.0)
        # ~0.1 deaths/s * 200 s = ~20; allow wide slack
        assert 5 <= churn.deaths <= 60

    def test_dead_nodes_are_down(self):
        sim, world, churn = make_churn(death_rate=0.5, mean_downtime=1e9)
        churn.start()
        sim.run(until=50.0)
        assert churn.deaths > 0
        for _, node, kind in timeline(churn):
            if kind == "death":
                assert not world.is_up(node)

    def test_rebirth(self):
        sim, world, churn = make_churn(death_rate=0.2, mean_downtime=5.0)
        churn.start()
        sim.run(until=300.0)
        assert churn.births > 0
        # every birth follows a death of the same node
        dead = set()
        for t, node, kind in timeline(churn):
            if kind == "death":
                dead.add(node)
            else:
                assert node in dead

    def test_immune_nodes_never_die(self):
        sim, world, churn = make_churn(death_rate=1.0, immune=(0,), mean_downtime=1e9)
        churn.start()
        sim.run(until=100.0)
        assert all(node != 0 for _, node, kind in timeline(churn))
        assert world.is_up(0)

    def test_start_idempotent(self):
        sim, world, churn = make_churn(death_rate=0.1)
        churn.start()
        churn.start()
        sim.run(until=20.0)  # would double-kill if armed twice
        # no assertion beyond "it runs"; the death count sanity is above

    def test_events_have_monotone_times(self):
        sim, _, churn = make_churn(death_rate=0.3, mean_downtime=3.0)
        churn.start()
        sim.run(until=100.0)
        times = [t for t, _, _ in timeline(churn)]
        assert times == sorted(times)


class TestChurnWithOverlay:
    def test_overlay_survives_churn(self):
        cfg = ScenarioConfig(num_nodes=30, duration=400.0, algorithm="regular", seed=3)
        s = build_scenario(cfg)
        churn = ChurnProcess(
            s.sim,
            s.world,
            s.rng.stream("churn"),
            death_rate=0.02,
            mean_downtime=60.0,
        )
        s.overlay.start()
        churn.start()
        s.sim.run(until=cfg.duration)
        assert churn.deaths > 0
        answered = sum(1 for r in s.overlay.query_records() if r.answered)
        assert answered > 0, "overlay must keep answering under churn"

    def test_dead_peers_references_cleaned(self):
        cfg = ScenarioConfig(
            num_nodes=20, duration=400.0, algorithm="regular", seed=5, queries=False
        )
        s = build_scenario(cfg)
        s.overlay.start(queries=False)
        s.sim.run(until=200.0)
        # kill one connected member permanently
        victim = next(
            (m for m in s.members if s.overlay.servents[m].connections.count > 0),
            None,
        )
        if victim is None:
            return  # sparse run formed no connections; nothing to assert
        s.world.set_down(victim)
        s.sim.run(until=400.0)
        for m in s.members:
            if m != victim:
                assert not s.overlay.servents[m].connections.has(victim)
