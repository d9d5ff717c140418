"""Tests for the one-call reproduction orchestrator."""

import json
import os

import pytest

from repro.experiments import ExperimentExecutor, RunCache, reproduce_all
from repro.obs.registry import Registry


@pytest.fixture(scope="module")
def executor_100s():
    """An in-process executor shared by the two ``duration=100, seed=2``
    tests: fig7 and fig9 harvest the same four runs, executed once."""
    return ExperimentExecutor(registry=Registry())


class TestReproduceAll:
    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_all(str(tmp_path), figures=["fig99"])

    def test_artifacts_written(self, tmp_path, executor_100s):
        out = str(tmp_path / "res")
        results = reproduce_all(
            out,
            figures=["fig7"],
            duration=100.0,
            reps=1,
            seed=2,
            executor=executor_100s,
        )
        assert set(results) == {"fig7"}
        for name in ("tables.txt", "SUMMARY.md", "fig7.txt", "fig7.json", "fig7.csv"):
            assert os.path.exists(os.path.join(out, name)), name
        with open(os.path.join(out, "fig7.json")) as fh:
            data = json.load(fh)
        assert data["exp_id"] == "fig7"
        assert set(data["series"]) == {"basic", "regular", "random", "hybrid"}

    def test_summary_counts_claims(self, tmp_path, executor_100s):
        out = str(tmp_path / "res")
        reproduce_all(
            out,
            figures=["fig9"],
            duration=100.0,
            reps=1,
            seed=2,
            executor=executor_100s,
        )
        summary = open(os.path.join(out, "SUMMARY.md")).read()
        assert "paper claims checked:" in summary
        assert "fig9" in summary

    def test_progress_callback(self, tmp_path):
        lines = []
        reproduce_all(
            str(tmp_path / "r"),
            figures=["fig7"],
            duration=60.0,
            reps=1,
            progress=lines.append,
        )
        assert any("fig7" in line for line in lines)

    def test_shared_figures_run_once(self, tmp_path):
        # fig5 and fig7 harvest different series from the same runs; the
        # prefetched batch must execute each underlying run exactly once.
        ex = ExperimentExecutor(registry=Registry())
        reproduce_all(
            str(tmp_path / "r"),
            figures=["fig5", "fig7"],
            duration=60.0,
            reps=1,
            executor=ex,
        )
        assert ex.stats()["jobs_executed"] == 4
        assert ex.stats()["jobs_deduped"] == 4

    def test_warm_cache_byte_identical(self, tmp_path):
        cache = str(tmp_path / "runs.ndjson")
        out_cold = str(tmp_path / "cold")
        out_warm = str(tmp_path / "warm")
        cold_ex = ExperimentExecutor(
            cache=RunCache(cache, registry=Registry()), registry=Registry()
        )
        warm_ex = ExperimentExecutor(
            cache=RunCache(cache, registry=Registry()), registry=Registry()
        )
        reproduce_all(
            out_cold, figures=["fig7"], duration=60.0, reps=1, executor=cold_ex
        )
        reproduce_all(
            out_warm, figures=["fig7"], duration=60.0, reps=1, executor=warm_ex
        )
        assert warm_ex.stats()["jobs_executed"] == 0
        assert warm_ex.stats()["cache_hits"] == 4
        for name in ("fig7.json", "fig7.csv", "fig7.txt"):
            a = open(os.path.join(out_cold, name)).read()
            b = open(os.path.join(out_warm, name)).read()
            assert a == b, name
