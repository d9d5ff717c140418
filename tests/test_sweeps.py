"""Tests for the parameter-sweep engine."""

import pytest

from repro.experiments import ExperimentExecutor, SweepSpec, run_sweep, sweep_grid
from repro.obs.registry import Registry
from repro.experiments.executor import default_chunksize
from repro.scenarios import ScenarioConfig


class TestSweepSpec:
    def test_valid(self):
        s = SweepSpec("num_nodes", (10, 20))
        assert s.field == "num_nodes"

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec("num_nodes", ())

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec("warp_speed", (1,))


class TestGrid:
    def test_single_spec(self):
        grid = sweep_grid([SweepSpec("algorithm", ("basic", "regular"))])
        assert grid == [{"algorithm": "basic"}, {"algorithm": "regular"}]

    def test_cartesian_product(self):
        grid = sweep_grid(
            [
                SweepSpec("algorithm", ("basic", "regular")),
                SweepSpec("num_nodes", (10, 20, 30)),
            ]
        )
        assert len(grid) == 6
        assert {"algorithm": "basic", "num_nodes": 20} in grid

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            sweep_grid([SweepSpec("num_nodes", (1,)), SweepSpec("num_nodes", (2,))])

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            sweep_grid([])


class TestRunSweep:
    BASE = ScenarioConfig(num_nodes=15, duration=120.0, seed=9)

    def test_serial_sweep(self):
        results = run_sweep(
            self.BASE, [SweepSpec("algorithm", ("basic", "regular"))], reps=1
        )
        assert len(results) == 2
        assert results[0].point == {"algorithm": "basic"}
        assert results[0].totals["connect"] > 0
        assert 0.0 <= results[0].answer_rate <= 1.0

    def test_reps_aggregate(self):
        results = run_sweep(
            self.BASE, [SweepSpec("num_nodes", (12,))], reps=2
        )
        assert results[0].reps == 2

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            run_sweep(self.BASE, [SweepSpec("num_nodes", (12,))], reps=0)

    def test_parallel_matches_serial(self):
        specs = [SweepSpec("algorithm", ("basic", "regular"))]
        serial = run_sweep(self.BASE, specs, reps=1)
        parallel = run_sweep(self.BASE, specs, reps=1, processes=2)
        for a, b in zip(serial, parallel):
            assert a.point == b.point
            assert a.totals == b.totals
            assert a.events == b.events

    def test_explicit_chunksize_matches_serial(self):
        # Nine jobs over two workers ship in chunks of two
        # (default_chunksize): chunked map must preserve both grid order
        # and point identity.
        base = self.BASE.with_(duration=30.0)
        specs = [
            SweepSpec("num_nodes", (10, 11, 12)),
            SweepSpec("algorithm", ("basic", "regular", "random")),
        ]
        assert default_chunksize(9, 2) == 2
        serial = run_sweep(base, specs, reps=1)
        chunked = run_sweep(base, specs, reps=1, processes=2)
        assert [r.point for r in chunked] == [r.point for r in serial]
        for a, b in zip(serial, chunked):
            assert a.totals == b.totals
            assert a.events == b.events
            assert a.energy == b.energy

    def test_reps_parallelize_identically(self):
        # The grid x reps product flattens into per-run jobs, so a
        # 1-point sweep still fills the pool -- with identical results.
        specs = [SweepSpec("algorithm", ("basic", "regular"))]
        serial = run_sweep(self.BASE, specs, reps=3)
        parallel = run_sweep(self.BASE, specs, reps=3, processes=3)
        assert [a.to_dict() for a in serial] == [b.to_dict() for b in parallel]

    def test_cache_resumes_sweep(self, tmp_path):
        cache = str(tmp_path / "runs.ndjson")
        specs = [SweepSpec("num_nodes", (10, 12))]
        cold = run_sweep(self.BASE, specs, reps=2, cache=cache)
        ex = ExperimentExecutor(cache=cache, registry=Registry())
        warm = run_sweep(self.BASE, specs, reps=2, executor=ex)
        assert [a.to_dict() for a in cold] == [b.to_dict() for b in warm]
        assert ex.stats()["jobs_executed"] == 0
        assert ex.stats()["cache_hits"] == 4

    def test_shared_executor_dedups_across_sweeps(self):
        ex = ExperimentExecutor(registry=Registry())
        specs = [SweepSpec("num_nodes", (10, 12))]
        run_sweep(self.BASE, specs, reps=1, executor=ex)
        run_sweep(self.BASE, specs, reps=1, executor=ex)
        assert ex.stats()["jobs_executed"] == 2
