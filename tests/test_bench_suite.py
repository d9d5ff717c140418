"""Tests for the perf-suite harness and the BENCH document schema."""

import json
import os

import pytest

from benchmarks.perf_suite import (
    BENCH_KIND,
    BENCH_SCHEMA_VERSION,
    BenchSchemaError,
    bench_broadcast_fanout,
    bench_kernel_throughput,
    bench_topology_refresh,
    compare_fanout_lanes,
    compare_metrics_kernels,
    compare_topology_refresh,
    run_suite,
    validate_bench_dict,
)

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


class TestWorkloads:
    def test_kernel_throughput(self):
        r = bench_kernel_throughput(n_events=2_000)
        assert r["events_dispatched"] == 2_000
        assert r["events_per_sec"] > 0

    def test_fanout_lanes_report_heap_traffic(self):
        ref = bench_broadcast_fanout(60, rounds=5, batched=False)
        bat = bench_broadcast_fanout(60, rounds=5, batched=True)
        # Logical event counts match; the heap traffic is what shrinks.
        assert ref["events_dispatched"] == bat["events_dispatched"]
        assert ref["frames_delivered"] == bat["frames_delivered"]
        assert bat["heap_pushes"] < ref["heap_pushes"]

    def test_compare_fanout_lanes_identical(self):
        cmp_ = compare_fanout_lanes(60, rounds=5, seeds=(1,))
        assert cmp_["semantically_identical"] is True
        assert cmp_["push_reduction"] > 1.0
        assert cmp_["seeds_checked"] == [1]

    def test_repeats_keep_deterministic_counters(self):
        once = bench_broadcast_fanout(60, rounds=5, repeats=1)
        thrice = bench_broadcast_fanout(60, rounds=5, repeats=3)
        assert once["events_dispatched"] == thrice["events_dispatched"]
        assert once["heap_pushes"] == thrice["heap_pushes"]
        assert thrice["reps"] == 3
        assert thrice["wall_seconds"] <= thrice["wall_mean"] <= thrice["wall_max"]

    def test_topology_refresh_lanes_diverge_in_effort_only(self):
        full = bench_topology_refresh(30, duration=3.0, lane="full")
        fast = bench_topology_refresh(30, duration=3.0, lane="delta")
        # Same query stream, bit-identical answers...
        assert full["params"]["fingerprint"] == fast["params"]["fingerprint"]
        # ...but only the delta refresh diffed positions.
        assert fast["moved_nodes"] > 0
        assert full["moved_nodes"] == 0
        assert set(fast) == set(full)
        assert not [k for k in fast if "kinetic" in k or "horizon" in k]

    def test_compare_topology_refresh_identical(self):
        cmp_ = compare_topology_refresh(30, duration=3.0, seeds=(1, 2))
        assert cmp_["semantically_identical"] is True
        assert cmp_["seeds_checked"] == [1, 2]
        assert cmp_["speedup"] > 0
        assert "speedup_predictive" not in cmp_
        assert {r["params"]["lane"] for r in (cmp_["full"], cmp_["delta"])} == {
            "full", "delta"}

    def test_compare_metrics_kernels_exact(self):
        cmp_ = compare_metrics_kernels(60)
        assert cmp_["semantically_identical"] is True
        assert cmp_["speedup"] > 0
        assert cmp_["networkx"]["params"]["edges"] == cmp_["numpy"]["params"]["edges"]


class TestSuiteDocument:
    def test_quick_suite_valid_and_json_safe(self):
        doc = run_suite(quick=True, sizes=(30,))
        validate_bench_dict(doc)  # no raise
        json.dumps(doc)  # round-trips without custom encoders
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["kind"] == BENCH_KIND
        names = {r["name"] for r in doc["results"]}
        assert names == {
            "kernel_throughput",
            "broadcast_fanout",
            "scenario_e2e",
            "topology_refresh",
            "metrics_kernels",
            "query_plane",
            "experiment_plane",
        }
        # The metro flagship is skipped on quick unless asked for.
        assert "metro_flagship" not in names

    def test_quick_suite_metro_opt_in(self):
        doc = run_suite(quick=True, sizes=(30,), metro=40, metro_duration=2.0)
        validate_bench_dict(doc)
        metro = [r for r in doc["results"] if r["name"] == "metro_flagship"]
        assert [r["params"]["n"] for r in metro] == [40]
        assert metro[0]["events_dispatched"] > 0

    def test_committed_document_is_valid(self):
        path = os.path.join(REPO_ROOT, "BENCH_substrate.json")
        with open(path) as fh:
            doc = json.load(fh)
        validate_bench_dict(doc)

        def comparison(name, n):
            found = [
                c for c in doc["comparisons"] if c["name"] == name and c["n"] == n
            ]
            assert found, f"missing {name} comparison at n={n}"
            return found[0]

        # The ISSUE 4 acceptance bar: >= 2x heap-event reduction at
        # n=600 with bit-identical semantics over the checked seeds.
        fanout = comparison("broadcast_fanout", 600)
        assert fanout["push_reduction"] >= 2.0
        assert fanout["semantically_identical"] is True
        # The refresh lanes answer the query stream identically on every
        # ladder rung and the metro tier (the record also carries rows of
        # the since-removed predictive lane; nothing here reads them),
        # and the vectorized metric kernels beat networkx by >= 5x at
        # n=600.
        for n in (*doc["sizes"], 10_000):
            assert comparison("topology_refresh", n)["semantically_identical"]
        kernels = comparison("metrics_kernels", 600)
        assert kernels["semantically_identical"] is True
        assert kernels["speedup"] >= 5.0
        # ISSUE 9: at least one suppressing policy cuts dispatched
        # events >= 2x at the dense n=600 query rung while keeping the
        # answer rate within 5 points of the flood reference, and the
        # metro query rung records both lanes.
        qp = comparison("query_plane", 600)
        assert qp["best_events_reduction"] >= 2.0
        assert qp["events_reduction_counter_2"] >= 2.0
        assert abs(qp["answer_rate_delta_counter_2"]) <= 0.05
        qp_metro = comparison("query_plane", 10_000)
        assert qp_metro["best_events_reduction"] > 0
        qp_lanes = {
            r["params"]["lane"]
            for r in doc["results"]
            if r["name"] == "query_plane" and r["params"]["n"] == 600
        }
        assert qp_lanes == {"flood", "probabilistic", "counter:2", "contact"}
        # ISSUE 10: per suppression policy, the warm-cache reproduce
        # pass replays the figure ladder >= 10x faster than cold with
        # digest-identical artifacts across the serial/parallel/cached
        # lanes, cross-figure dedup collapses figs 5/7/9/11 onto one
        # simulation per (duration, seed), and the warm pass serves
        # every lookup from the archive.
        ep_cmps = [c for c in doc["comparisons"] if c["name"] == "experiment_plane"]
        assert {c["policy"] for c in ep_cmps} == {
            "flood", "probabilistic", "counter:2", "contact"
        }
        for c in ep_cmps:
            assert c["semantically_identical"] is True
            assert c["speedup"] >= 10.0
            assert c["dedup_ratio"] == 4.0
            assert c["hit_rate"] == 1.0
        # The committed record predates the single event queue: it still
        # carries queue_kernel rows and one metro_flagship row per queue
        # lane, which the suite no longer emits and nothing here reads.
        metro_results = [r for r in doc["results"] if r["name"] == "metro_flagship"]
        assert metro_results and all(r["wall_seconds"] > 0 for r in metro_results)
        # Multi-rep timing: the full ladder records spread, not one shot
        # (the metro flagship deliberately runs once).
        for r in doc["results"]:
            if r["name"] in (
                "kernel_throughput",
                "metro_flagship",
                "query_plane",
                "experiment_plane",
            ):
                # query_plane / experiment_plane lanes run once:
                # counters are deterministic and the cold/warm contrast
                # needs a virgin archive per rep anyway.
                continue
            if r["name"] == "topology_refresh" and r["params"]["n"] not in doc["sizes"]:
                continue  # the metro refresh tier runs once per lane
            assert r["reps"] >= 3


class TestValidator:
    def _minimal(self):
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": BENCH_KIND,
            "quick": True,
            "sizes": [30],
            "host": {"platform": "p", "python": "3", "numpy": "2"},
            "git_revision": None,
            "results": [
                {"name": "kernel_throughput", "params": {}, "wall_seconds": 0.1}
            ],
            "comparisons": [],
        }

    def test_minimal_document_accepted(self):
        validate_bench_dict(self._minimal())

    def test_wrong_version_rejected(self):
        doc = self._minimal()
        doc["schema_version"] = 99
        with pytest.raises(BenchSchemaError):
            validate_bench_dict(doc)

    def test_wrong_kind_rejected(self):
        doc = self._minimal()
        doc["kind"] = "topology"
        with pytest.raises(BenchSchemaError):
            validate_bench_dict(doc)

    def test_non_numeric_metric_rejected(self):
        doc = self._minimal()
        doc["results"][0]["events_per_sec"] = "fast"
        with pytest.raises(BenchSchemaError):
            validate_bench_dict(doc)

    def test_negative_wall_rejected(self):
        doc = self._minimal()
        doc["results"][0]["wall_seconds"] = -1.0
        with pytest.raises(BenchSchemaError):
            validate_bench_dict(doc)

    def test_bad_comparison_rejected(self):
        doc = self._minimal()
        doc["comparisons"] = [{"name": "x", "n": 5, "push_reduction": 2.0}]
        with pytest.raises(BenchSchemaError):
            validate_bench_dict(doc)

    def test_comparison_without_push_reduction_accepted(self):
        # Refresh/kernel comparisons are wall-clock only.
        doc = self._minimal()
        doc["comparisons"] = [{"name": "topology_refresh", "n": 5, "speedup": 1.4}]
        validate_bench_dict(doc)

    def test_non_numeric_push_reduction_rejected(self):
        doc = self._minimal()
        doc["comparisons"] = [
            {"name": "x", "n": 5, "push_reduction": "big", "speedup": 1.0}
        ]
        with pytest.raises(BenchSchemaError):
            validate_bench_dict(doc)
