"""Tests for the result store and statistical validation helpers."""

import json

import numpy as np
import pytest

from repro.experiments import (
    ResultStore,
    ks_curve_test,
    means_differ,
    ordering_stability,
)
from repro.scenarios import ScenarioConfig, run_scenario


class TestResultStore:
    def test_append_and_load(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.ndjson"))
        store.append("note", {"x": 1}, experiment="demo")
        store.append("note", {"x": 2}, experiment="other")
        assert len(store) == 2
        demo = store.load(experiment="demo")
        assert len(demo) == 1 and demo[0]["payload"]["x"] == 1

    def test_kind_filter(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.ndjson"))
        store.append("a", {})
        store.append("b", {})
        assert len(store.load(kind="a")) == 1

    def test_where_filter(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.ndjson"))
        store.append("n", {"v": 5})
        store.append("n", {"v": 50})
        big = store.load(where=lambda r: r["payload"]["v"] > 10)
        assert len(big) == 1

    def test_missing_file_empty(self, tmp_path):
        store = ResultStore(str(tmp_path / "absent.ndjson"))
        assert store.load() == []

    def test_run_result_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "runs.ndjson"))
        res = run_scenario(ScenarioConfig(num_nodes=12, duration=60.0, seed=1))
        store.append_run(res, algorithm="regular", purpose="test")
        (rec,) = store.load(kind="run")
        assert rec["tags"]["algorithm"] == "regular"
        assert rec["payload"]["num_nodes"] == 12
        # file is valid ndjson line by line
        for line in open(store.path):
            json.loads(line)


class TestCorruptLines:
    def test_truncated_final_line_skipped_and_counted(self, tmp_path):
        from repro.obs.registry import Registry

        registry = Registry()
        store = ResultStore(str(tmp_path / "r.ndjson"), registry=registry)
        store.append("note", {"x": 1})
        store.append("note", {"x": 2})
        # chop the final line mid-record, as a killed writer would
        raw = open(store.path).read()
        with open(store.path, "w") as fh:
            fh.write(raw[:-12])
        loaded = store.load()
        assert [r["payload"]["x"] for r in loaded] == [1]
        assert registry.counter("storage.corrupt_lines").value == 1

    def test_non_object_line_skipped(self, tmp_path):
        from repro.obs.registry import Registry

        registry = Registry()
        store = ResultStore(str(tmp_path / "r.ndjson"), registry=registry)
        store.append("note", {"x": 1})
        with open(store.path, "a") as fh:
            fh.write("[1, 2, 3]\n")
            fh.write("not json at all\n")
        assert len(store.load()) == 1
        assert registry.counter("storage.corrupt_lines").value == 2


class TestBatchAppend:
    def test_batch_writes_every_record(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.ndjson"))
        with store.batch():
            for i in range(5):
                store.append("note", {"i": i})
        assert [r["payload"]["i"] for r in store.load()] == list(range(5))

    def test_batch_reentrant(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.ndjson"))
        with store.batch():
            store.append("note", {"i": 0})
            with store.batch():
                store.append("note", {"i": 1})
            # outer handle still open after the nested exit
            store.append("note", {"i": 2})
        assert len(store) == 3

    def test_appends_outside_batch_still_work(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.ndjson"))
        with store.batch():
            store.append("note", {"i": 0})
        store.append("note", {"i": 1})
        assert len(store) == 2


class TestKsTest:
    def test_identical_distributions_high_p(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=200), rng.normal(size=200)
        stat, p = ks_curve_test(a, b)
        assert p > 0.05

    def test_different_distributions_low_p(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, size=200)
        b = rng.normal(3, 1, size=200)
        stat, p = ks_curve_test(a, b)
        assert p < 0.01 and stat > 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_curve_test(np.array([]), np.array([1.0]))


class TestMeansDiffer:
    def test_clearly_different(self):
        out = means_differ([1, 1.1, 0.9, 1.0], [5, 5.2, 4.9, 5.1])
        assert out["significant"] == 1.0
        assert out["mean_y"] > out["mean_x"]

    def test_same_distribution_not_significant(self):
        rng = np.random.default_rng(1)
        out = means_differ(rng.normal(size=10), rng.normal(size=10))
        assert out["significant"] == 0.0

    def test_needs_two_reps(self):
        with pytest.raises(ValueError):
            means_differ([1.0], [2.0, 3.0])


class TestOrderingStability:
    def test_always_holds(self):
        out = ordering_stability(
            lambda seed: {"a": 10 + seed, "b": 5, "c": 1},
            ("a", "b", "c"),
            seeds=range(5),
        )
        assert out["fraction_holds"] == 1.0
        assert out["per_pair"]["a>=b"] == 1.0

    def test_partial_holds(self):
        out = ordering_stability(
            lambda seed: {"a": seed % 2, "b": 0.5},
            ("a", "b"),
            seeds=range(4),
        )
        assert out["fraction_holds"] == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ordering_stability(lambda s: {}, ("only",), seeds=[1])
