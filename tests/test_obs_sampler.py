"""Sampler determinism and non-perturbation guarantees.

The acceptance bar for the observability layer: a run with a sampler
attached must be bit-identical to the same run without one, and two runs
of the same seeded scenario must produce identical sampled series.
"""

import json

import pytest

from repro.obs import Registry, Sampler
from repro.scenarios import ScenarioConfig, run_scenario
from repro.sim.kernel import Simulator


def _core(d):
    """A run dict with the observability-only parts stripped."""
    d = dict(d)
    d.pop("obs", None)
    d["config"] = {k: v for k, v in d["config"].items() if k != "obs_interval"}
    return json.dumps(d, sort_keys=True)


class TestSamplerMechanics:
    def test_rows_at_interval(self):
        sim = Simulator()
        reg = sim.registry
        c = reg.counter("ticks")
        sim.schedule(2.5, c.inc)
        sampler = Sampler(sim, reg, interval=1.0)
        sampler.start()
        sim.run(until=5.0)
        assert [r["t"] for r in sampler.rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
        _, values = sampler.series("ticks")
        assert values == [0.0, 0.0, 1.0, 1.0, 1.0]

    def test_daemon_events_excluded_from_dispatch_count(self):
        sim = Simulator()
        sampler = Sampler(sim, sim.registry, interval=1.0)
        sampler.start()
        sim.schedule(2.0, lambda: None)
        sim.run(until=5.0)
        assert sim.registry.value("kernel.events_dispatched") == 1  # only the payload event
        assert sim.registry.value("kernel.events_daemon") == 5

    def test_interval_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Sampler(sim, Registry(), interval=0.0)

    def test_timers_excluded_from_rows(self):
        sim = Simulator()
        reg = sim.registry
        with reg.timed("setup"):
            pass
        sampler = Sampler(sim, reg, interval=1.0)
        sampler.start()
        sim.run(until=1.0)
        assert not any("wall" in key for key in sampler.rows[0])


class TestDeterminism:
    CFG = dict(num_nodes=15, duration=120.0)

    def test_same_seed_identical_series(self):
        a = run_scenario(ScenarioConfig(seed=5, obs_interval=10.0, **self.CFG))
        b = run_scenario(ScenarioConfig(seed=5, obs_interval=10.0, **self.CFG))
        assert a.timeseries == b.timeseries
        assert len(a.timeseries) == 12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampling_does_not_perturb_results(self, seed):
        plain = run_scenario(ScenarioConfig(seed=seed, **self.CFG))
        sampled = run_scenario(
            ScenarioConfig(seed=seed, obs_interval=5.0, **self.CFG)
        )
        assert _core(plain.to_dict()) == _core(sampled.to_dict())
