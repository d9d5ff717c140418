"""Aggregation of query records and multi-repetition statistics.

The paper repeats every simulation 33 times and reports averages.  This
module turns raw :class:`~repro.core.query.QueryRecord` lists into the
per-file-rank series of Figures 5/6 and provides mean / std / normal
confidence intervals across repetitions for any metric array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["FileRankStats", "per_file_stats", "mean_ci", "sorted_curve_mean"]


@dataclass(slots=True)
class FileRankStats:
    """Figures 5/6 data for one file rank."""

    file_id: int
    queries: int
    answered: int
    avg_answers: float
    avg_min_p2p_hops: float
    avg_min_adhoc_hops: float


def per_file_stats(records: Sequence, num_files: int) -> List[FileRankStats]:
    """Aggregate query records into the paper's per-file-rank series.

    * ``avg_answers``: mean number of answers per issued query
      (unanswered queries count as 0 answers, as the paper's averages
      must);
    * ``avg_min_*_hops``: mean over *answered* queries of the minimum
      distance to a holder (the paper's "average minimum distance").
    """
    stats: List[FileRankStats] = []
    by_file: Dict[int, list] = {fid: [] for fid in range(1, num_files + 1)}
    for rec in records:
        if rec.file_id in by_file:
            by_file[rec.file_id].append(rec)
    for fid in range(1, num_files + 1):
        recs = by_file[fid]
        answered = [r for r in recs if r.answered]
        n_answers = [len(r.answers) for r in recs]
        p2p = [r.min_p2p_hops for r in answered if r.min_p2p_hops is not None]
        adhoc = [r.min_adhoc_hops for r in answered if r.min_adhoc_hops is not None]
        stats.append(
            FileRankStats(
                file_id=fid,
                queries=len(recs),
                answered=len(answered),
                avg_answers=float(np.mean(n_answers)) if n_answers else 0.0,
                avg_min_p2p_hops=float(np.mean(p2p)) if p2p else float("nan"),
                avg_min_adhoc_hops=float(np.mean(adhoc)) if adhoc else float("nan"),
            )
        )
    return stats


def mean_ci(
    samples: Sequence[np.ndarray | float], confidence: float = 0.95
) -> Dict[str, np.ndarray]:
    """Mean, std and normal-approximation CI half-width across samples.

    ``samples`` is one value (scalar or equal-shaped array) per
    repetition.  NaNs (e.g. path length of an empty graph in one rep)
    are ignored per-position.
    """
    arr = np.asarray([np.asarray(s, dtype=float) for s in samples])
    if arr.shape[0] == 0:
        raise ValueError("need at least one sample")
    # z for the two-sided confidence level (0.95 -> 1.96) without scipy
    z = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}.get(round(confidence, 2))
    if z is None:
        raise ValueError(f"unsupported confidence level {confidence}")
    import warnings

    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        # Positions observed in < 2 repetitions have no variance estimate;
        # treat their std as 0 instead of warning.
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(arr, axis=0)
        std = np.nanstd(arr, axis=0, ddof=1) if arr.shape[0] > 1 else np.zeros_like(mean)
        std = np.nan_to_num(std, nan=0.0)
        count = np.sum(~np.isnan(arr), axis=0)
        half = z * std / np.sqrt(np.maximum(count, 1))
    return {"mean": mean, "std": std, "ci": half, "n": count}


def sorted_curve_mean(curves: Sequence[np.ndarray]) -> np.ndarray:
    """Average several sorted-decreasing per-node curves position-wise.

    Curves from repetitions may differ in length by a node or two (churn
    experiments); shorter curves are right-padded with zeros, matching
    "that node received nothing".
    """
    if not curves:
        raise ValueError("need at least one curve")
    length = max(len(c) for c in curves)
    padded = np.zeros((len(curves), length))
    for i, c in enumerate(curves):
        padded[i, : len(c)] = c
    return padded.mean(axis=0)
