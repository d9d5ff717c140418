"""Tests for report rendering helpers (paper comparison)."""

import numpy as np

from repro.experiments.figures import FigureResult
from repro.experiments.report import render_paper_comparison


def curve_result(totals, exp_id="fig7", family="connect"):
    res = FigureResult(
        exp_id=exp_id,
        kind="message_curve",
        num_nodes=50,
        duration=100.0,
        reps=1,
        family=family,
    )
    res.series = {
        alg: {"curve": np.array([float(t), float(t) / 2])} for alg, t in totals.items()
    }
    res.totals = {k: float(v) for k, v in totals.items()}
    return res


class TestRenderPaperComparison:
    def test_agreeing_marks(self):
        res = curve_result({"basic": 100, "regular": 40, "random": 60, "hybrid": 40})
        out = render_paper_comparison(res)
        assert "AGREES" in out
        assert "DIFFERS" not in out
        assert "Connect messages (50 nodes" in out

    def test_differing_marks(self):
        res = curve_result({"basic": 5, "regular": 400, "random": 6, "hybrid": 4})
        out = render_paper_comparison(res)
        assert "DIFFERS" in out

    def test_contains_paper_prose(self):
        res = curve_result({"basic": 100, "regular": 40, "random": 60, "hybrid": 40})
        out = render_paper_comparison(res)
        assert "indiscriminately" in out  # quoted paper text
