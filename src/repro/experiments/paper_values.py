"""What the paper's figures show, and the rule that judges each claim.

Absolute numbers are not expected to transfer (our substrate is a
collision-free simulator with different timer constants; the paper ran
ns-2 on 2002 hardware), but each figure makes qualitative claims and
shows axis magnitudes that can be read off the plots.  This module
records them so EXPERIMENTS.md and the benches compare against *stated
paper content*, not against folklore.  It is the one place the claims
are named: :data:`CLAIM_CHECKS` holds each claim's check under its
exact id, and a :class:`PaperFigure` naming a claim without one fails
at import.

Sources: §7.4 text and Figures 5-12 of the IPDPS'03 paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = ["PaperFigure", "PAPER_FIGURES", "compare_with_paper"]

#: one check's finding: ``(holds, detail)``
Verdict = Tuple[bool, str]


def _answers_decay(result) -> List[Verdict]:
    """Zipf decay, per algorithm: the most popular file gets at least
    the tail ranks' mean number of answers."""
    verdicts = []
    for alg in result.algorithms():
        answers = result.series[alg]["answers"]
        tail = answers[5:].mean() if len(answers) > 5 else answers[-1]
        verdicts.append(
            (bool(answers[0] >= tail), f"rank1={answers[0]:.2f} tail_mean={tail:.2f}")
        )
    return verdicts


def _distance_increases(result) -> List[Verdict]:
    """Per algorithm with >= 4 finite ranks: the second half of the
    distance curve is at least 0.85x the first half ("despite some
    oscillations")."""
    verdicts = []
    for alg in result.algorithms():
        dist = result.series[alg]["distance"]
        finite = dist[np.isfinite(dist)]
        if len(finite) >= 4:
            first = finite[: len(finite) // 2].mean()
            second = finite[len(finite) // 2 :].mean()
            detail = f"first_half={first:.2f} second_half={second:.2f}"
            verdicts.append((bool(second >= first * 0.85), detail))
    return verdicts


def _basic_most_connects(result) -> List[Verdict]:
    t = result.totals
    return [(bool(t["basic"] >= max(t["regular"], t["hybrid"])), f"totals={t}")]


def _random_above_regular(result) -> List[Verdict]:
    t = result.totals
    detail = f"random={t['random']:.0f} regular={t['regular']:.0f}"
    return [(bool(t["random"] >= t["regular"]), detail)]


def _basic_most_pings(result) -> List[Verdict]:
    t = result.totals
    holds = t["basic"] >= max(t["regular"], t["random"], t["hybrid"])
    return [(bool(holds), f"totals={t}")]


def _hybrid_skewed(result) -> List[Verdict]:
    """Hybrid's top (master) node receives at least the share of the
    plotted family that regular's top node does."""
    s = result.series
    skew = {
        alg: float(s[alg]["curve"][0] / max(s[alg]["curve"].sum(), 1))
        for alg in result.algorithms()
    }
    detail = f"top-node share={ {k: round(v, 3) for k, v in skew.items()} }"
    return [(bool(skew["hybrid"] >= skew["regular"]), detail)]


#: claim id -> the rule that judges it.  A check returns one verdict
#: per algorithm it could judge (or one for the whole figure); the
#: claim holds when every verdict does, and is "not evaluated" only
#: when the data is too short for any verdict.
CLAIM_CHECKS: Dict[str, Callable[..., List[Verdict]]] = {
    "answers decay with rank": _answers_decay,
    "distance tends to increase": _distance_increases,
    "basic generates the most connect traffic": _basic_most_connects,
    "random sits above regular (long-range TTLs)": _random_above_regular,
    "basic generates the most ping traffic (2x effect)": _basic_most_pings,
    "hybrid load is skewed toward masters": _hybrid_skewed,
    "hybrid queries are skewed toward masters": _hybrid_skewed,
}


@dataclass(frozen=True)
class PaperFigure:
    """Recorded content of one paper figure."""

    exp_id: str
    caption: str
    #: y-axis range readable from the plot (paper units)
    y_range: Tuple[float, float]
    #: qualitative claims made by the figure/its discussion, as
    #: (claim id, prose); every id is a key of CLAIM_CHECKS
    claims: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        unjudged = [c for c, _ in self.claims if c not in CLAIM_CHECKS]
        if unjudged:
            raise ValueError(f"{self.exp_id}: no check for claims {unjudged}")


PAPER_FIGURES: Dict[str, PaperFigure] = {
    "fig5": PaperFigure(
        exp_id="fig5",
        caption="Distance to find the file and # of answers per file request (50 nodes, 75% p2p)",
        y_range=(1.1, 1.45),
        claims=(
            (
                "answers decay with rank",
                "the number of answers decreases as the requested file becomes unpopular, reflecting the Zipf distribution",
            ),
            (
                "distance tends to increase",
                "despite some oscillations, the distance tends to increase",
            ),
        ),
    ),
    "fig6": PaperFigure(
        exp_id="fig6",
        caption="Distance to find the file and # of answers per file request (150 nodes, 75% p2p)",
        y_range=(1.3, 1.75),
        claims=(
            ("answers decay with rank", "same Zipf decay as fig5"),
            ("distance tends to increase", "same tendency as fig5"),
        ),
    ),
    "fig7": PaperFigure(
        exp_id="fig7",
        caption="Connect messages (50 nodes, 75% p2p)",
        y_range=(20, 180),
        claims=(
            (
                "basic generates the most connect traffic",
                "the Basic algorithm, which uses broadcasts indiscriminately, presents greater values for all nodes",
            ),
            (
                "random sits above regular (long-range TTLs)",
                "the curve of the Random algorithm is above the ones of the Regular and the Hybrid algorithms due to the random connection establishment phase, in which broadcast messages are sent with higher TTL values",
            ),
        ),
    ),
    "fig8": PaperFigure(
        exp_id="fig8",
        caption="Connect messages (150 nodes, 75% p2p)",
        y_range=(0, 800),
        claims=(
            ("basic generates the most connect traffic", "as fig7"),
            ("random sits above regular (long-range TTLs)", "as fig7"),
        ),
    ),
    "fig9": PaperFigure(
        exp_id="fig9",
        caption="Pings (50 nodes, 75% p2p)",
        y_range=(0, 50),
        claims=(
            (
                "basic generates the most ping traffic (2x effect)",
                "the three improved algorithms profited from the symmetrical connections: only one node sends pings; this feature diminishes the overall number of messages",
            ),
            (
                "hybrid load is skewed toward masters",
                "the hybrid algorithm puts a bigger burden on nodes with a high qualifier: masters get more ping messages",
            ),
        ),
    ),
    "fig10": PaperFigure(
        exp_id="fig10",
        caption="Pings (150 nodes, 75% p2p)",
        y_range=(0, 120),
        claims=(
            ("basic generates the most ping traffic (2x effect)", "as fig9"),
            ("hybrid load is skewed toward masters", "as fig9"),
        ),
    ),
    "fig11": PaperFigure(
        exp_id="fig11",
        caption="Queries (50 nodes, 75% p2p)",
        y_range=(0, 160),
        claims=(
            (
                "hybrid queries are skewed toward masters",
                "masters get more query messages",
            ),
        ),
    ),
    "fig12": PaperFigure(
        exp_id="fig12",
        caption="Queries (150 nodes, 75% p2p)",
        y_range=(0, 700),
        claims=(
            ("hybrid queries are skewed toward masters", "as fig11"),
        ),
    ),
}


def compare_with_paper(result) -> List[dict]:
    """Judge a FigureResult against each of its figure's paper claims.

    Returns one row per claim, in the figure's order:
    ``{"claim", "paper_says", "holds", "measured"}``, where
    ``measured`` joins the first four distinct verdict details.  A
    claim whose check found too little data to judge is reported with
    ``holds=None`` (not evaluated).
    """
    paper = PAPER_FIGURES.get(result.exp_id)
    if paper is None:
        raise ValueError(f"no paper record for {result.exp_id!r}")
    rows = []
    for claim_id, prose in paper.claims:
        verdicts = CLAIM_CHECKS[claim_id](result)
        if verdicts:
            holds = all(h for h, _ in verdicts)
            detail = "; ".join(list(dict.fromkeys(d for _, d in verdicts))[:4])
        else:
            holds, detail = None, "not evaluated"
        rows.append(
            {
                "claim": claim_id,
                "paper_says": prose,
                "holds": holds,
                "measured": detail,
            }
        )
    return rows
