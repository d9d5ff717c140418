"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(
            ["figure", "fig7", "--duration", "60", "--reps", "2"]
        )
        assert args.figure == "fig7" and args.duration == 60.0 and args.reps == 2

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_bad_queue_rejected(self, capsys):
        # no queue knob is left: any --queue is an unknown argument
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--nodes", "15", "--queue", "heap"])
        assert "unrecognized arguments: --queue" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--topology-refresh", "full"],
            ["sweep", "nodes", "10", "--topology-refresh", "delta"],
            ["map", "--topology-refresh", "predictive"],
            ["run", "--analytics", "parallel"],
            ["sweep", "nodes", "10", "--analytics", "serial"],
            ["run", "--analytics-mode", "full"],
            ["sweep", "nodes", "10", "--analytics-mode", "full"],
            ["run", "--topology", "dense"],
            ["sweep", "nodes", "10", "--topology", "sparse"],
            ["map", "--topology", "auto"],
        ],
    )
    def test_removed_lane_flags_rejected(self, argv, capsys):
        # one topology refresh path, one analytics path and a backend
        # chosen from the node count: their old lane flags are unknown
        # arguments
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_run_has_no_processes_flag(self, capsys):
        # --processes sized the removed BFS pool on run; sweep and
        # reproduce keep it for the experiment executor
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--processes", "2"])
        assert "unrecognized arguments: --processes" in capsys.readouterr().err
        assert build_parser().parse_args(["reproduce", "--processes", "2"]).processes == 2

    @pytest.mark.parametrize("argv", [["sweep", "nodes", "10"], ["reproduce"]])
    def test_processes_help_matches_executor(self, argv, capsys):
        # an unset --processes runs in-process; only 0 means every core
        from repro.experiments import ExperimentExecutor
        from repro.obs.registry import Registry

        with pytest.raises(SystemExit):
            build_parser().parse_args([argv[0], "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: run in-process; 0: all cores)" in text
        default = build_parser().parse_args(argv).processes
        assert ExperimentExecutor(processes=default, registry=Registry()).processes == 1


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Centralized" in out and "TTL for queries" in out

    def test_run(self, capsys):
        assert main(["run", "--nodes", "15", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "received totals" in out and "events dispatched" in out

    def test_figure_scaled(self, capsys):
        assert (
            main(["figure", "fig9", "--duration", "90", "--reps", "1", "--routing", "oracle"])
            == 0
        )
        out = capsys.readouterr().out
        assert "fig9" in out and "paper vs measured" in out
