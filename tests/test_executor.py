"""Tests for the deduplicating, cache-aware experiment executor."""

import pytest

from repro.experiments import ExperimentExecutor, RunCache, SweepSpec, figure_configs
from repro.experiments import run_figure, run_sweep
from repro.experiments.export import figure_result_to_json
from repro.scenarios import ScenarioConfig

#: lanes must agree over several seeds, not just the lucky one
EQUIVALENCE_SEEDS = (1, 2, 3)

CFG = ScenarioConfig(num_nodes=12, duration=60.0, seed=0)


class TestValidation:
    def test_negative_processes_rejected(self):
        with pytest.raises(ValueError):
            ExperimentExecutor(processes=-1)

    def test_chunksize_is_not_a_parameter(self):
        # the executor's default_chunksize is the one chunking policy
        with pytest.raises(TypeError):
            ExperimentExecutor(processes=2, chunksize=2)
        with pytest.raises(TypeError):
            run_sweep(CFG, [SweepSpec("num_nodes", (10,))], chunksize=2)

    def test_zero_means_all_cores(self):
        assert ExperimentExecutor(processes=0).processes >= 1


class TestDedup:
    def test_batch_dedup(self):
        ex = ExperimentExecutor()
        runs = ex.run_configs([CFG, CFG.with_(seed=1), CFG])
        assert len(runs) == 3
        assert runs[0] is runs[2]
        assert ex.stats()["jobs_executed"] == 2
        assert ex.stats()["jobs_deduped"] == 1

    def test_memo_spans_batches(self):
        ex = ExperimentExecutor()
        (first,) = ex.run_configs([CFG])
        (again,) = ex.run_configs([CFG])
        assert again is first
        assert ex.stats()["jobs_executed"] == 1
        # cross-batch reuse is a memo hit, not a dedup event
        assert ex.stats()["jobs_deduped"] == 0

    def test_figures_5_7_9_11_share_runs(self):
        # Figures 5/7/9/11 harvest different series from identical
        # configs -- one prefetched batch must execute each run once.
        settings = dict(duration=30.0, reps=1, seed=0)
        batch = [
            c
            for fid in ("fig5", "fig7", "fig9", "fig11")
            for c in figure_configs(fid, **settings)
        ]
        ex = ExperimentExecutor()
        runs = ex.run_configs(batch)
        assert len(runs) == 16
        assert ex.stats()["jobs_executed"] == 4
        assert ex.stats()["jobs_deduped"] == 12


class TestIsolation:
    def test_executors_count_only_their_own_jobs(self, tmp_path):
        # Without registry= each executor (and the cache it builds from a
        # path) counts into a private registry, never a process-wide one.
        first, second = ExperimentExecutor(), ExperimentExecutor()
        first.run_configs([CFG])
        second.run_configs([CFG.with_(seed=1)])
        assert first.stats()["jobs_executed"] == 1
        assert second.stats()["jobs_executed"] == 1
        path = str(tmp_path / "c.ndjson")
        a, b = ExperimentExecutor(cache=path), ExperimentExecutor(cache=path)
        assert a.cache.hits is not b.cache.hits


class TestEquivalence:
    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
    def test_parallel_bit_identical_to_serial(self, seed):
        serial = run_figure("fig7", duration=40.0, reps=2, seed=seed)
        parallel = run_figure(
            "fig7", duration=40.0, reps=2, seed=seed,
            executor=ExperimentExecutor(processes=2),
        )
        assert figure_result_to_json(parallel) == figure_result_to_json(serial)

    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
    def test_cached_bit_identical_to_serial(self, seed, tmp_path):
        serial = run_figure("fig5", duration=40.0, reps=1, seed=seed)
        cache_path = str(tmp_path / "runs.ndjson")
        cold = run_figure(
            "fig5", duration=40.0, reps=1, seed=seed,
            executor=ExperimentExecutor(cache=RunCache(cache_path)),
        )
        warm_ex = ExperimentExecutor(cache=RunCache(cache_path))
        warm = run_figure(
            "fig5", duration=40.0, reps=1, seed=seed, executor=warm_ex
        )
        assert figure_result_to_json(cold) == figure_result_to_json(serial)
        assert figure_result_to_json(warm) == figure_result_to_json(serial)
        assert warm_ex.stats()["jobs_executed"] == 0
        assert warm_ex.stats()["cache_hits"] == 4


class TestCacheIntegration:
    def test_write_back_then_resume(self, tmp_path):
        cache_path = str(tmp_path / "runs.ndjson")
        ex = ExperimentExecutor(cache=cache_path)
        ex.run_configs([CFG, CFG.with_(seed=1)])
        # a fresh executor (fresh process) over the same archive
        ex2 = ExperimentExecutor(cache=cache_path)
        ex2.run_configs([CFG, CFG.with_(seed=1), CFG.with_(seed=2)])
        stats = ex2.stats()
        assert stats["cache_hits"] == 2
        assert stats["jobs_executed"] == 1

    def test_path_coerced_to_cache(self, tmp_path):
        ex = ExperimentExecutor(cache=str(tmp_path / "c.ndjson"))
        assert isinstance(ex.cache, RunCache)
