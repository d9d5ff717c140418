"""Tests for experiment definitions, tables and the report renderer."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentExecutor,
    FigureResult,
    compare_with_paper,
    figure_configs,
    figure_result_to_json,
    render_figure,
    render_table,
    reproduce_all,
    run_figure,
    table1_rows,
    table2_rows,
)
from repro.obs.registry import Registry
from repro.scenarios import ScenarioConfig


class TestTables:
    def test_table1_matches_paper(self):
        rows = table1_rows()
        header = rows[0]
        assert header == ["", "Centralized", "Decentralized", "Hybrid"]
        as_dict = {r[0]: r[1:] for r in rows[1:]}
        assert as_dict["Manageable"] == ["yes", "no", "no"]
        assert as_dict["Extensible"] == ["no", "yes", "yes"]
        assert as_dict["Fault-Tolerant"] == ["no", "yes", "yes"]
        assert as_dict["Secure"] == ["yes", "no", "no"]
        assert as_dict["Lawsuit-proof"] == ["no", "yes", "yes"]
        assert as_dict["Scalable"] == ["depend", "maybe", "apparently"]

    def test_table2_matches_paper(self):
        rows = dict(r for r in table2_rows()[1:])
        assert rows["transmission range"] == "10 m"
        assert rows["number of distinct searchable files"] == "20"
        assert rows["frequency of the most popular file"] == "40%"
        assert rows["NHOPS_INITIAL"] == "2 ad-hoc hops"
        assert rows["MAXNHOPS"] == "6 ad-hoc hops"
        assert rows["NHOPS (Basic Algorithm)"] == "6 ad-hoc hops"
        assert rows["MAXDIST"] == "6 ad-hoc hops"
        assert rows["MAXNCONN"] == "3"
        assert rows["MAXNSLAVES"] == "3"
        assert rows["TTL for queries"] == "6 p2p hops"

    def test_table2_tracks_config(self):
        rows = dict(r for r in table2_rows(ScenarioConfig(radio_range=25.0))[1:])
        assert rows["transmission range"] == "25 m"


class TestRunFigure:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_figure("fig99")

    def test_message_curve_figure_small(self):
        res = run_figure("fig7", duration=120.0, reps=1, seed=4)
        assert res.kind == "message_curve"
        assert res.family == "connect"
        assert res.num_nodes == 50
        assert set(res.series) == {"basic", "regular", "random", "hybrid"}
        for alg, payload in res.series.items():
            curve = payload["curve"]
            assert len(curve) == 38  # members of a 50-node scenario
            assert (np.diff(curve) <= 1e-9).all()

    def test_one_plan_one_batch(self, monkeypatch, tmp_path):
        # run_figure executes exactly figure_configs' list in one call,
        # and its figure is the one reproduce_all writes
        calls = []
        original = ExperimentExecutor.run_configs

        def spy(self, configs):
            calls.append(list(configs))
            return original(self, configs)

        monkeypatch.setattr(ExperimentExecutor, "run_configs", spy)
        settings = dict(duration=30.0, reps=1, seed=5)
        res = run_figure("fig7", **settings)
        assert calls == [figure_configs("fig7", **settings)]
        monkeypatch.undo()
        reproduce_all(
            str(tmp_path),
            figures=["fig7"],
            executor=ExperimentExecutor(registry=Registry()),
            **settings,
        )
        assert figure_result_to_json(res) == (tmp_path / "fig7.json").read_text()

    def test_distance_answers_figure_small(self):
        res = run_figure("fig5", duration=150.0, reps=1, seed=4, routing="oracle")
        assert res.kind == "distance_answers"
        for alg, payload in res.series.items():
            assert len(payload["distance"]) == 10
            assert len(payload["answers"]) == 10


class TestRender:
    def test_render_table_alignment(self):
        out = render_table([["a", "bb"], ["ccc", "d"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "ccc" in lines[3]

    def test_render_empty(self):
        assert render_table([]) == ""

    def test_render_figure_curve(self):
        res = FigureResult(
            exp_id="figX",
            kind="message_curve",
            num_nodes=4,
            duration=10.0,
            reps=1,
            family="ping",
        )
        res.series = {
            "basic": {"curve": np.array([5.0, 1.0])},
            "regular": {"curve": np.array([2.0, 1.0])},
        }
        res.totals = {"basic": 6.0, "regular": 3.0}
        out = render_figure(res)
        assert "figX" in out and "5.00" in out and "totals" in out


class TestShapeChecks:
    def test_connect_shape_detects_violation(self):
        res = FigureResult(
            exp_id="fig7",
            kind="message_curve",
            num_nodes=4,
            duration=1.0,
            reps=1,
            family="connect",
        )
        res.series = {
            a: {"curve": np.array([1.0])} for a in ("basic", "regular", "random", "hybrid")
        }
        res.totals = {"basic": 1.0, "regular": 100.0, "random": 1.0, "hybrid": 1.0}
        holds = {r["claim"]: r["holds"] for r in compare_with_paper(res)}
        assert holds["basic generates the most connect traffic"] is False
