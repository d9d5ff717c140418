"""``--compare`` verdicts on synthetic documents."""

import json

from bench import run
from bench.compare import compare_documents, render, verdict

DECLARED = [
    {"name": "run_us_per_tx", "unit": "us/tx", "better": "lower", "bound": 0.1},
    {"name": "hit_share", "unit": "ratio", "better": "higher", "bound": 0.1},
]


def test_same_within_bound():
    v = verdict([10.0, 10.2, 9.9], [10.3, 10.1, 10.4], "lower", 0.1)
    assert v["verdict"] == "same"
    assert v["base_median"] == 10.0 and v["median"] == 10.3


def test_worse_beyond_bound_with_tight_spread():
    assert verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", 0.1)["verdict"] == "worse"
    # direction flips for higher-is-better metrics
    assert verdict([0.9, 0.91, 0.89], [0.7, 0.71, 0.69], "higher", 0.1)["verdict"] == "worse"


def test_better_when_every_run_beats_every_run():
    v = verdict([10.0, 14.0, 12.0], [9.0, 9.5, 9.9], "lower", 0.1)
    assert v["verdict"] == "better"  # despite a spread wider than the bound
    assert verdict([0.5, 0.52], [0.8, 0.81], "higher", 0.1)["verdict"] == "better"
    # separated runs settle the direction, the bound still sizes the verdict
    assert verdict([10.0, 10.01], [9.99, 9.98], "lower", 0.1)["verdict"] == "same"


def test_unresolved_when_spread_exceeds_bound_and_runs_overlap():
    v = verdict([10.0, 14.0, 12.0, 8.0], [13.0, 9.0, 15.0, 11.0], "lower", 0.1)
    assert v["verdict"] == "unresolved"
    assert v["spread"] > 0.1


def test_wide_spread_is_still_worse_when_no_run_overlaps():
    v = verdict([10.0, 14.0, 12.0], [20.0, 28.0, 24.0], "lower", 0.1)
    assert v["verdict"] == "worse"


def _doc(run_values, hit_values, digest="d", failed=0, revision=None):
    def row(values):
        return {"values": values, "median": sorted(values)[len(values) // 2]}

    return {
        "seed": 1,
        "scale": "full",
        "host": {"git_revision": revision},
        "workloads": {
            "w": {
                "digest": digest,
                "failed": failed,
                "end_to_end": {"run_us_per_tx": row(run_values), "hit_share": row(hit_values)},
                "run_s": row([1.0, 1.01, 0.99]),
            }
        },
    }


def test_documents_rows_digest_and_exit_code(tmp_path, capsys):
    a = _doc([10.0, 10.1, 9.9], [0.9, 0.9, 0.9])
    b = _doc([12.0, 12.1, 11.9], [0.9, 0.9, 0.9])
    rows = compare_documents(a, b, DECLARED)
    by_metric = {r["metric"]: r["verdict"] for r in rows}
    assert by_metric == {
        "run_us_per_tx": "worse", "hit_share": "same", "digest": "same", "failed": "same",
    }
    text, code = render(rows)
    assert code == 1 and "1 worse row(s)" in text and "1.200x" in text

    same_rows = compare_documents(a, a, DECLARED)
    assert render(same_rows)[1] == 0
    assert {r["verdict"] for r in same_rows} == {"same"}

    # A moved digest: the transmission count is part of what moved, so
    # raw seconds are judged in place of time per transmission (here:
    # fewer transmissions at the same wall is no slowdown); between two
    # commits the digest row is the reviewer's to judge ...
    b = _doc([12.0, 12.1, 11.9], [0.7, 0.7, 0.7], digest="e", revision="r2")
    a = _doc([10.0, 10.1, 9.9], [0.9, 0.9, 0.9], revision="r1")
    rows = compare_documents(a, b, DECLARED)
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "run_s": "same", "hit_share": "worse", "digest": "moved", "failed": "same",
    }
    # ... but one commit has to reproduce its own digests
    b["host"]["git_revision"] = "r1"
    rows = compare_documents(a, b, DECLARED)
    assert {r["metric"]: r["verdict"] for r in rows}["digest"] == "worse"
    b["workloads"]["w"]["end_to_end"]["hit_share"]["values"] = [0.9, 0.9, 0.9]
    assert render(compare_documents(a, b, DECLARED))[1] == 1

    # more failed operations than the base is a regression of its own
    failing = compare_documents(a, _doc([10.0, 10.1, 9.9], [0.9, 0.9, 0.9], failed=2), DECLARED)
    assert render(failing)[1] == 1

    # the CLI path: real metric declarations, files on disk
    doc = {"seed": 1, "scale": "full", "workloads": {"w": {"digest": "d", "failed": 0,
           "end_to_end": {"setup_s": {"values": [1.0, 1.1, 0.9]}}}}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(doc))
    doc["workloads"]["w"]["end_to_end"]["setup_s"]["values"] = [2.0, 2.1, 1.9]
    pb.write_text(json.dumps(doc))
    assert run.main(["--compare", str(pa), str(pb)]) == 1
    assert "worse" in capsys.readouterr().out
    assert run.main(["--compare", str(pa), str(pa)]) == 0
