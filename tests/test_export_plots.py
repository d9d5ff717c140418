"""Tests for result export (JSON/CSV) and ASCII plotting."""

import json

import numpy as np
import pytest

from repro.experiments import (
    ascii_chart,
    figure_chart,
    figure_result_to_csv,
    figure_result_to_dict,
    figure_result_to_json,
)
from repro.experiments.figures import FigureResult
from repro.scenarios import ScenarioConfig, run_scenario


def small_run():
    return run_scenario(ScenarioConfig(num_nodes=15, duration=90.0, seed=6))


def fig_result():
    res = FigureResult(
        exp_id="figT",
        kind="message_curve",
        num_nodes=4,
        duration=10.0,
        reps=1,
        family="ping",
    )
    res.series = {
        "basic": {"curve": np.array([5.0, 1.0])},
        "regular": {"curve": np.array([2.0, float("nan")])},
    }
    res.totals = {"basic": 6.0, "regular": 2.0}
    return res


class TestRunExport:
    def test_json_parses(self):
        out = json.loads(json.dumps(small_run().to_dict()))
        assert out["num_nodes"] == 15
        assert "totals" in out and "file_stats" in out
        assert isinstance(out["sorted_received"]["connect"], list)

    def test_nan_becomes_null(self):
        out = small_run().to_dict()
        for s in out["file_stats"]:
            v = s["avg_min_p2p_hops"]
            assert v is None or isinstance(v, float)

    def test_plain_types_only(self):
        def check(obj):
            if isinstance(obj, dict):
                for v in obj.values():
                    check(v)
            elif isinstance(obj, list):
                for v in obj:
                    check(v)
            else:
                assert obj is None or isinstance(obj, (bool, int, float, str))

        check(small_run().to_dict())


class TestFigureExport:
    def test_json_roundtrip(self):
        res = fig_result()
        res.totals["regular"] = np.float64("nan")
        out = json.loads(figure_result_to_json(res))
        assert out["exp_id"] == "figT"
        assert out["series"]["basic"]["curve"] == [5.0, 1.0]
        assert out["series"]["regular"]["curve"][1] is None  # NaN -> null
        assert out["totals"]["regular"] is None  # numpy NaN scalar too
        assert figure_result_to_dict(res) == out

    def test_csv_long_format(self):
        lines = figure_result_to_csv(fig_result()).strip().splitlines()
        assert lines[0] == "exp_id,algorithm,series,index,value"
        assert "figT,basic,curve,0,5" in lines[1]
        # NaN cell exported as empty
        nan_rows = [l for l in lines if l.endswith(",")]
        assert len(nan_rows) == 1


class TestAsciiChart:
    def test_renders_series_and_legend(self):
        out = ascii_chart({"a": [1, 2, 3], "b": [3, 2, 1]}, width=20, height=5)
        assert "* a" in out and "o b" in out
        assert "|" in out and "+" in out

    def test_handles_empty(self):
        assert ascii_chart({}) == "(no data)"
        assert "(no finite data)" in ascii_chart({"a": [float("nan")]})

    def test_flat_series_no_crash(self):
        out = ascii_chart({"flat": [2.0, 2.0, 2.0]}, width=10, height=4)
        assert "flat" in out

    def test_figure_chart(self):
        out = figure_chart(fig_result())
        assert "figT" in out and "basic" in out

    def test_y_axis_labels(self):
        out = ascii_chart({"a": [0.0, 10.0]}, width=10, height=4, y_label="msgs")
        assert "10" in out and "0" in out and "msgs" in out
