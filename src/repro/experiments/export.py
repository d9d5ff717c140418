"""Serialize figure results to JSON / CSV.

The harness prints text tables; downstream users (plotting in a
full-featured environment, archiving sweeps) want machine-readable
output.  Everything numpy is converted to plain Python so the JSON is
portable.  A run serializes itself: :meth:`RunResult.to_dict
<repro.scenarios.runner.RunResult.to_dict>`.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict

import numpy as np

from ..obs.export import to_plain
from .figures import FigureResult

__all__ = [
    "figure_result_to_dict",
    "figure_result_to_json",
    "figure_result_to_csv",
]


def figure_result_to_dict(result: FigureResult) -> Dict[str, Any]:
    """A FigureResult as a JSON-ready dict."""
    return to_plain(
        {
            "exp_id": result.exp_id,
            "kind": result.kind,
            "num_nodes": result.num_nodes,
            "duration": result.duration,
            "reps": result.reps,
            "family": result.family,
            "series": {
                alg: {k: v for k, v in payload.items()}
                for alg, payload in result.series.items()
            },
            "totals": result.totals,
        }
    )


def figure_result_to_json(result: FigureResult, indent: int = 2) -> str:
    return json.dumps(figure_result_to_dict(result), indent=indent)


def figure_result_to_csv(result: FigureResult) -> str:
    """Long-format CSV: exp_id, algorithm, series, index, value."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["exp_id", "algorithm", "series", "index", "value"])
    for alg, payload in result.series.items():
        for key, values in payload.items():
            for i, v in enumerate(np.asarray(values, dtype=float)):
                writer.writerow(
                    [result.exp_id, alg, key, i, "" if not np.isfinite(v) else f"{v:.6g}"]
                )
    return buf.getvalue()
