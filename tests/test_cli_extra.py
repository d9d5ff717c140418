"""Tests for the newer CLI commands (sweep, map, reproduce, formats)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestSweepCommand:
    def test_sweep_algorithm(self, capsys):
        assert main(["sweep", "algorithm", "basic", "regular", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "basic" in out and "regular" in out and "answer_rate" in out

    def test_sweep_nodes(self, capsys):
        assert main(["sweep", "nodes", "10", "20", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "10" in out and "20" in out

    def test_sweep_rejects_bad_parameter(self):
        with pytest.raises(SystemExit):
            main(["sweep", "flux", "1"])


class TestMapCommand:
    def test_map_renders(self, capsys):
        assert main(["map", "--nodes", "12", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "+--" in out and "overlay" in out


class TestFigureFormats:
    ARGS = ["figure", "fig9", "--duration", "60", "--reps", "1", "--routing", "oracle"]

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exp_id"] == "fig9"

    def test_csv_output(self, capsys):
        assert main(self.ARGS + ["--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("exp_id,algorithm,series,index,value")

    def test_chart_and_compare(self, capsys):
        assert main(self.ARGS + ["--chart"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out
        assert "|" in out  # chart axis

    def test_compare_flag_removed(self, capsys):
        # the paper comparison is always printed; the old flag is an error
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--compare"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --compare" in capsys.readouterr().err


class TestReproduceCommand:
    def test_reproduce_subset(self, tmp_path, capsys):
        out_dir = str(tmp_path / "res")
        assert (
            main(
                [
                    "reproduce",
                    "--out",
                    out_dir,
                    "--figures",
                    "fig7",
                    "--duration",
                    "60",
                    "--reps",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "artifacts written" in out
        assert (tmp_path / "res" / "SUMMARY.md").exists()


class TestOrchestrationFlags:
    def test_reproduce_resume_reuses_cache(self, tmp_path, capsys):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        base = ["--figures", "fig7", "--duration", "40", "--reps", "1"]
        assert main(["reproduce", "--out", out1] + base + ["--resume"]) == 0
        cache = str(tmp_path / "a" / "runs.ndjson")
        import os

        assert os.path.exists(cache)
        capsys.readouterr()
        assert (
            main(["reproduce", "--out", out2] + base + ["--cache", cache]) == 0
        )
        assert "cache hits" in capsys.readouterr().out
        a = open(os.path.join(out1, "fig7.json")).read()
        b = open(os.path.join(out2, "fig7.json")).read()
        assert a == b

    def test_reproduce_processes_flag(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        args = [
            "reproduce", "--out", out, "--figures", "fig7",
            "--duration", "40", "--reps", "2", "--processes", "2",
        ]
        assert main(args) == 0
        assert "artifacts written" in capsys.readouterr().out

    def test_sweep_resume_needs_store_or_cache(self, capsys):
        rc = main(["sweep", "nodes", "10", "--duration", "30", "--resume"])
        assert rc == 2
        assert "--resume needs" in capsys.readouterr().err

    def test_sweep_cache_flag(self, tmp_path, capsys):
        cache = str(tmp_path / "c.ndjson")
        args = ["sweep", "nodes", "10", "--duration", "30", "--cache", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # warm: served from the cache
        assert capsys.readouterr().out == first
        import os

        assert os.path.exists(cache)

    def test_figure_policy_flags(self, capsys):
        args = [
            "figure", "fig11", "--duration", "40", "--reps", "1",
            "--rebroadcast", "counter:2", "--json",
        ]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exp_id"] == "fig11"


class TestRunStats:
    ARGS = ["run", "--nodes", "12", "--duration", "40"]

    def test_stats_flag_prints_breakdown(self, capsys):
        assert main(self.ARGS + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock breakdown" in out and "scenario.run" in out
        assert "counters" in out and "kernel.events_dispatched" in out

    def test_json_includes_obs(self, capsys):
        assert main(self.ARGS + ["--json", "--obs-interval", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 1
        assert len(data["obs"]["timeseries"]) == 4
        assert "manifest" in data["obs"]


class TestRunSchemaSmoke:
    @pytest.mark.parametrize(
        "flags",
        [[], ["--rebroadcast", "counter:2"]],
        ids=["default", "counter"],
    )
    def test_run_json_validates(self, flags, tmp_path, capsys):
        # The run document the CLI prints must pass the standalone
        # validator script, on the reference and a suppressing policy.
        assert main(["run", "--nodes", "30", "--duration", "90", "--json"] + flags) == 0
        doc = tmp_path / "run.json"
        doc.write_text(capsys.readouterr().out)
        script = os.path.join(REPO, "scripts", "validate_run_schema.py")
        env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
        proc = subprocess.run(
            [sys.executable, script, str(doc)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0 and "valid run dict" in proc.stdout, proc.stderr


class TestRunRejectsBadConfig:
    @pytest.mark.parametrize(
        "flags, value",
        [
            (["--rebroadcast", "contact"], "'contact'"),
            (["--rebroadcast", "nope"], "'nope'"),
            (["--nodes", "1"], "got 1"),
        ],
        ids=["retired-contact-lane", "unknown-policy", "one-node"],
    )
    def test_exits_2_with_one_line(self, flags, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--duration", "5"] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and value in errors[0], err
        assert errors[0].startswith("p2p-manet run: error: ")


class TestSweepRejectsBadConfig:
    @pytest.mark.parametrize(
        "argv, value",
        [
            (["nodes", "1", "--duration", "5"], "got 1"),
            (["mobility", "teleport"], "'teleport'"),
            (["nodes", "abc"], "'abc'"),
        ],
        ids=["one-node", "unknown-mobility", "non-int-nodes"],
    )
    def test_exits_2_with_one_line(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and value in errors[0], err
        assert errors[0].startswith("p2p-manet sweep: error: ")

    def test_bad_point_fails_before_any_run(self, capsys):
        # The good first point must not run (and print) before the bad
        # second one is rejected.
        with pytest.raises(SystemExit):
            main(["sweep", "nodes", "10", "1", "--duration", "5"])
        assert capsys.readouterr().out == ""


class TestBadValuesRejected:
    """``figure``, ``reproduce`` and ``sweep`` reject a bad value with one
    usage line (exit 2) before anything runs or is written."""

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["figure", "fig9", "--rebroadcast", "bogus"], "'bogus'"),
            (["figure", "fig9", "--reps", "0"], "--reps: must be positive"),
            (["figure", "fig9", "--duration", "-5"], "--duration: must be positive"),
            (["reproduce", "--figures", "fig99"], "'fig99'"),
            (["reproduce", "--reps", "0"], "--reps: must be positive"),
            (["sweep", "nodes", "20", "--reps", "0"], "--reps: must be positive"),
        ],
        ids=[
            "figure-rebroadcast",
            "figure-reps",
            "figure-duration",
            "reproduce-figures",
            "reproduce-reps",
            "sweep-reps",
        ],
    )
    def test_exits_2_with_one_line(self, argv, value, tmp_path, capsys):
        if argv[0] == "reproduce":
            argv = argv + ["--out", str(tmp_path / "res")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and value in errors[0], captured.err
        assert errors[0].startswith(f"p2p-manet {argv[0]}: error: ")
        assert not (tmp_path / "res").exists()  # nothing written


class TestSweepJson:
    def test_sweep_json(self, capsys):
        assert (
            main(["sweep", "nodes", "10", "12", "--duration", "40", "--json"]) == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert [p["point"]["num_nodes"] for p in data] == [10, 12]
        assert all("answer_rate" in p for p in data)


class TestStatsCommand:
    def test_stats_reads_archived_run(self, tmp_path, capsys):
        path = str(tmp_path / "runs.ndjson")
        assert (
            main(
                ["run", "--nodes", "12", "--duration", "40", "--store", path]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "run: regular, 12 nodes" in out
        assert "wall-clock breakdown" in out
        assert "provenance" in out

    def test_stats_json(self, tmp_path, capsys):
        path = str(tmp_path / "runs.ndjson")
        main(["run", "--nodes", "12", "--duration", "40", "--store", path])
        capsys.readouterr()
        assert main(["stats", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_nodes"] == 12 and data["schema_version"] == 1

    def test_stats_missing_store(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.ndjson")]) == 1
        assert "no archived runs" in capsys.readouterr().err

    def test_stats_bad_index(self, tmp_path, capsys):
        path = str(tmp_path / "runs.ndjson")
        main(["run", "--nodes", "12", "--duration", "40", "--store", path])
        capsys.readouterr()
        assert main(["stats", path, "--index", "5"]) == 1
        assert "out of range" in capsys.readouterr().err
