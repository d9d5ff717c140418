"""Plain-text rendering of reproduced figures and tables.

The benches and the CLI print through these helpers so every experiment
emits the same rows/series the paper reports, in a stable, diffable
format.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .figures import FigureResult
from .paper_values import PAPER_FIGURES, compare_with_paper

__all__ = ["render_table", "render_figure", "render_paper_comparison"]


def render_table(rows: Sequence[Sequence[str]], title: str = "") -> str:
    """Fixed-width text table (first row is the header)."""
    if not rows:
        return ""
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    lines = []
    if title:
        lines.append(title)
    header, *body = rows
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*[str(x) for x in header]))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append(fmt.format(*[str(x) for x in row]))
    return "\n".join(lines)


def _fmt(x: float) -> str:
    if isinstance(x, float) and not np.isfinite(x):
        return "-"
    return f"{x:.2f}"


def render_figure(result: FigureResult, max_rows: int = 12) -> str:
    """Render a FigureResult as the paper's rows/series."""
    algs = result.algorithms()
    lines = [
        f"== {result.exp_id}: {result.num_nodes} nodes, "
        f"{result.duration:g}s x {result.reps} reps =="
    ]
    if result.kind == "distance_answers":
        rows = [["file rank"] + [f"{a}:dist" for a in algs] + [f"{a}:answ" for a in algs]]
        n = len(next(iter(result.series.values()))["distance"])
        for i in range(n):
            rows.append(
                [str(i + 1)]
                + [_fmt(result.series[a]["distance"][i]) for a in algs]
                + [_fmt(result.series[a]["answers"][i]) for a in algs]
            )
        lines.append(render_table(rows))
    else:
        lines.append(f"family: {result.family}")
        rows = [["node#"] + list(algs)]
        length = max(len(result.series[a]["curve"]) for a in algs)
        idx = list(range(min(length, max_rows)))
        if length > max_rows:
            idx = sorted(set(np.linspace(0, length - 1, max_rows).astype(int)))
        for i in idx:
            rows.append(
                [str(i)]
                + [
                    _fmt(float(result.series[a]["curve"][i]))
                    if i < len(result.series[a]["curve"])
                    else "-"
                    for a in algs
                ]
            )
        lines.append(render_table(rows))
        lines.append(
            "network totals: "
            + ", ".join(f"{a}={result.totals[a]:.0f}" for a in algs)
        )
    return "\n".join(lines)


def render_paper_comparison(result: FigureResult) -> str:
    """Render the paper-claim vs measured comparison for a result."""
    paper = PAPER_FIGURES[result.exp_id]
    lines = [f'paper vs measured for {result.exp_id} ("{paper.caption}"):']
    for row in compare_with_paper(result):
        mark = {True: "AGREES", False: "DIFFERS", None: "N/A"}[row["holds"]]
        lines.append(f"  [{mark}] {row['claim']}")
        lines.append(f"      paper:    {row['paper_says']}")
        lines.append(f"      measured: {row['measured']}")
    return "\n".join(lines)
