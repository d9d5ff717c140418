"""Drive the whole harness at smoke scale and hold it to BENCHMARK.json."""

import glob
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bench.metrics import END_TO_END, PER_LAYER
from bench.trace import LAYERS
from bench.workloads import WORKLOADS

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
RUN = os.path.join(ROOT, "bench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    out = tmp / "smoke.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out), "--spans-dir", str(tmp / "spans")],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        return json.load(fh), proc.stdout, tmp / "spans"


def test_benchmark_json_matches_the_declarations(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["command"] == ["python3", "bench/run.py"]
    assert declared["paths"] == ["bench"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_declarations_respect_the_contract_limits(declared):
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in declared[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in declared["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200, w["name"]
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in declared["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    # the driver's budget: 4 + 22 x workloads runs inside 3420 s
    runs = 4 + 22 * len(declared["workloads"])
    assert runs * (declared["run_seconds"] + 8) < 3420


def test_smoke_reports_exactly_the_declared_metrics(declared, smoke):
    document, _stdout, _spans = smoke
    assert document["claim"] is None
    assert sorted(document["workloads"]) == sorted(w["name"] for w in declared["workloads"])
    for key in ("nproc", "python", "numpy", "git_revision"):
        assert key in document["host"]
    for name, section in document["workloads"].items():
        assert set(section["end_to_end"]) == {m["name"] for m in declared["end_to_end"]}, name
        assert set(section["per_layer"]) == {m["name"] for m in declared["per_layer"]}, name
        for metric, row in section["end_to_end"].items():
            assert row["n"] == 1 and row["median"] > 0, (name, metric)
        assert section["run_s"]["median"] > 0  # the raw wall --compare falls back on
        for metric, value in section["per_layer"].items():
            assert isinstance(value, float) and value == value, (name, metric)


def test_smoke_outputs_are_correct_and_attributed(smoke):
    document, stdout, _spans = smoke
    for name, section in document["workloads"].items():
        # untraced and traced children agree on every operation's digest
        assert section["failed"] == 0 and section["correct"], section["problems"]
        assert section["attempted"] >= 2
        assert re.fullmatch(r"[0-9a-f]{64}", section["digest"])
        assert section["per_layer"]["trace.unattributed_share"] <= 0.10, name
        assert section["per_layer"]["trace.overhead_ratio"] > 0
        assert abs(sum(section["layer_share"].values()) - 1.0) < 1e-9
    repro = document["workloads"]["reproduce_figs"]["per_layer"]
    assert repro["experiments.jobs_planned"] == 64
    assert repro["experiments.jobs_executed"] == 16
    assert repro["experiments.dedup_ratio"] == 0.75
    assert repro["experiments.paper_claims_share"] > 0
    assert repro["experiments.cache_hit_share"] == 1.0  # every warm lookup hit
    assert repro["experiments.warm_replay_ms"] > 0
    # every metric is printed by name with its unit
    for m in END_TO_END + PER_LAYER:
        assert re.search(rf"^\s+{re.escape(m.name)}\s+\S+ {re.escape(m.unit)}\b", stdout, re.M), m.name
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]


def test_raw_spans_are_written_one_file_per_workload(smoke):
    document, _stdout, spans = smoke
    assert sorted(os.listdir(spans)) == sorted(name + ".npz" for name in document["workloads"])
    for name, section in document["workloads"].items():
        with np.load(spans / (name + ".npz")) as dump:
            n = int(section["per_layer"]["trace.spans"])
            assert len(dump["start"]) == len(dump["end"]) == len(dump["parent"]) == n
            assert (dump["end"] >= dump["start"]).all()
            assert set(dump["layers"][dump["name"]]) <= set(LAYERS)
            assert set(dump["names"]) >= set(section["spans_by_name"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_form_prints_the_contract_line(declared, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "paper_table2", "--seed", "3",
         "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = declared["end_to_end"] if trace == "0" else declared["per_layer"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], float)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".work-*", "tests"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_table2", "--seed", "1",
         "--seconds", "28", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_a_child_that_overruns_is_killed_and_counted_as_failed():
    from bench import run

    section = run.measure(
        "metro_mobility", 1, "full", seconds=1.0, reps=None, trace="0", child_timeout=1.0
    )
    assert section["failed"] == section["attempted"] >= 1 and not section["correct"]
    assert "timed out" in section["problems"][0]
    assert "end_to_end" not in section  # nothing measured, nothing reported
    assert not glob.glob(os.path.join(ROOT, "bench", ".work-*"))  # the kill left no scratch
    line = run.contract_line(section, "0")
    assert line == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
