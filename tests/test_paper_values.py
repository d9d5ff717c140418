"""Tests for the paper's claim table and the comparison helper."""

import json
import os

import numpy as np
import pytest

from repro.experiments import PAPER_FIGURES, PaperFigure, compare_with_paper
from repro.experiments.figures import FigureResult
from repro.experiments.report import render_paper_comparison

ALGORITHMS = ("basic", "regular", "random", "hybrid")

#: family plotted by each message-curve figure (figs 5/6 plot distance
#: and answers by file rank instead)
CURVE_FAMILY = {
    "fig7": "connect",
    "fig8": "connect",
    "fig9": "ping",
    "fig10": "ping",
    "fig11": "query",
    "fig12": "query",
}

#: per-algorithm curves of a synthetic message figure, by whether it
#: agrees with every §7.4 claim (basic leads the totals, random sits
#: above regular, hybrid's top node takes the largest share)
CURVES = {
    True: {
        "basic": [50.0, 30.0, 20.0],
        "regular": [20.0, 15.0, 5.0],
        "random": [30.0, 20.0, 10.0],
        "hybrid": [30.0, 8.0, 2.0],
    },
    False: {
        "basic": [5.0, 3.0, 2.0],
        "regular": [200.0, 150.0, 50.0],
        "random": [30.0, 20.0, 10.0],
        "hybrid": [10.0, 10.0, 10.0],
    },
}


def synthetic_result(exp_id, agree=True, short=False):
    """A well-formed FigureResult for ``exp_id`` whose data agrees (or
    disagrees) with every claim the paper makes about that figure.

    ``short`` leaves figs 5/6 with three finite distance ranks, too few
    to judge "distance tends to increase".
    """
    family = CURVE_FAMILY.get(exp_id)
    res = FigureResult(
        exp_id=exp_id,
        kind="distance_answers" if family is None else "message_curve",
        num_nodes=50 if int(exp_id[3:]) % 2 else 150,
        duration=100.0,
        reps=1,
        family=family,
    )
    for i, alg in enumerate(ALGORITHMS):
        if family is None:
            ranks = np.arange(10, dtype=float)
            slope = 1.0 if agree else -1.0
            answers = 8.0 + i - slope * 0.7 * ranks
            distance = 1.3 + 0.1 * i + slope * (0.05 + 0.01 * i) * ranks
            if short:
                distance[3:] = np.inf
            res.series[alg] = {"distance": distance, "answers": answers}
            res.totals[alg] = 100.0 + i
        else:
            curve = np.array(CURVES[agree][alg])
            res.series[alg] = {"curve": curve}
            res.totals[alg] = float(curve.sum())
    return res


#: ``compare_with_paper`` rows and ``render_paper_comparison`` text of
#: every synthetic case, recorded before the claims and their checks
#: moved into one table; the move must not change a byte
PINNED_PATH = os.path.join(os.path.dirname(__file__), "data", "paper_comparison_pinned.json")
with open(PINNED_PATH) as fh:
    PINNED = json.load(fh)


def pinned_case(key):
    exp_id, variant = key.split(":")
    return synthetic_result(
        exp_id, agree=variant != "disagree", short=variant == "short"
    )


class TestPaperRecords:
    def test_all_eight_figures_recorded(self):
        assert set(PAPER_FIGURES) == {f"fig{i}" for i in range(5, 13)}

    def test_every_figure_has_claims(self):
        for fig in PAPER_FIGURES.values():
            assert fig.claims, f"{fig.exp_id} has no recorded claims"
            lo, hi = fig.y_range
            assert lo < hi

    def test_150_node_ranges_exceed_50_node_ranges(self):
        # the paper's 150-node figures show more traffic
        assert PAPER_FIGURES["fig8"].y_range[1] > PAPER_FIGURES["fig7"].y_range[1]
        assert PAPER_FIGURES["fig10"].y_range[1] > PAPER_FIGURES["fig9"].y_range[1]
        assert PAPER_FIGURES["fig12"].y_range[1] > PAPER_FIGURES["fig11"].y_range[1]


class TestClaimTable:
    @pytest.mark.parametrize("exp_id", sorted(PAPER_FIGURES))
    def test_every_claim_is_evaluated(self, exp_id):
        rows = compare_with_paper(synthetic_result(exp_id))
        assert [r["claim"] for r in rows] == [c for c, _ in PAPER_FIGURES[exp_id].claims]
        assert all(r["holds"] is not None for r in rows), rows

    def test_claim_without_check_fails_at_construction(self):
        with pytest.raises(ValueError, match="no check"):
            PaperFigure(
                exp_id="figX",
                caption="x",
                y_range=(0, 1),
                claims=(("an unjudged claim", "prose"),),
            )

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_rows_equal_pinned(self, key):
        assert compare_with_paper(pinned_case(key)) == PINNED[key]["rows"]

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_rendered_text_equal_pinned(self, key):
        assert render_paper_comparison(pinned_case(key)) == PINNED[key]["text"]


def curve_result(totals):
    res = FigureResult(
        exp_id="fig7",
        kind="message_curve",
        num_nodes=50,
        duration=100.0,
        reps=1,
        family="connect",
    )
    res.series = {
        alg: {"curve": np.array([float(t), float(t) / 2])} for alg, t in totals.items()
    }
    res.totals = {k: float(v) for k, v in totals.items()}
    return res


class TestCompare:
    def test_agreeing_result(self):
        res = curve_result({"basic": 100, "regular": 40, "random": 60, "hybrid": 40})
        rows = compare_with_paper(res)
        assert all(r["holds"] for r in rows)
        claims = {r["claim"] for r in rows}
        assert "basic generates the most connect traffic" in claims

    def test_disagreeing_result_flagged(self):
        res = curve_result({"basic": 10, "regular": 400, "random": 60, "hybrid": 40})
        rows = compare_with_paper(res)
        basic_row = next(
            r for r in rows if r["claim"] == "basic generates the most connect traffic"
        )
        assert basic_row["holds"] is False

    def test_unknown_figure_rejected(self):
        res = curve_result({"basic": 1, "regular": 1, "random": 1, "hybrid": 1})
        res.exp_id = "fig99"
        with pytest.raises(ValueError):
            compare_with_paper(res)

    def test_rows_carry_paper_prose(self):
        res = curve_result({"basic": 100, "regular": 40, "random": 60, "hybrid": 40})
        rows = compare_with_paper(res)
        assert all(r["paper_says"] for r in rows)
