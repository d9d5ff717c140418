"""Experiment definitions for every figure in the paper's evaluation.

:func:`figure_configs` is the one definition of a figure's runs (the
four algorithms x repetitions of that figure's scenario);
:func:`run_figure` executes them through an
:class:`~repro.experiments.executor.ExperimentExecutor` and returns a
:class:`FigureResult` holding the same series the paper plots.  The
paper scale is 3600 s x 33 repetitions at 50 / 150 nodes; the benches
and ``reproduce`` run shorter horizons (same shape, laptop-friendly).

Figure index (paper §7.4):

* Figure 5 / 6  -- avg minimum distance to the requested file and avg
  answers per request, by file popularity rank (50 / 150 nodes).
* Figure 7 / 8  -- connect messages received per node, nodes sorted
  decreasing (50 / 150 nodes).
* Figure 9 / 10 -- ping messages, same axes.
* Figure 11 / 12 -- query messages, same axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..metrics.aggregate import mean_ci, sorted_curve_mean
from ..scenarios.config import ScenarioConfig
from .executor import ExperimentExecutor

__all__ = [
    "ALGORITHM_ORDER",
    "FigureResult",
    "figure_configs",
    "run_figure",
]

ALGORITHM_ORDER = ("basic", "regular", "random", "hybrid")

#: file-popularity ranks plotted by figures 5/6
TOP_FILES = 10

#: message family plotted by each curve figure
_CURVE_FAMILY = {
    "fig7": "connect",
    "fig8": "connect",
    "fig9": "ping",
    "fig10": "ping",
    "fig11": "query",
    "fig12": "query",
}

#: node count of each figure's scenario
_FIG_NODES = {
    "fig5": 50,
    "fig6": 150,
    "fig7": 50,
    "fig8": 150,
    "fig9": 50,
    "fig10": 150,
    "fig11": 50,
    "fig12": 150,
}


@dataclass
class FigureResult:
    """One reproduced figure: per-algorithm series plus metadata."""

    exp_id: str
    kind: str  # "distance_answers" | "message_curve"
    num_nodes: int
    duration: float
    reps: int
    #: distance_answers: {alg: {"distance": arr10, "answers": arr10}}
    #: message_curve:    {alg: {"curve": sorted per-node array}}
    series: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)
    family: Optional[str] = None
    #: per-algorithm network totals of the plotted family
    totals: Dict[str, float] = field(default_factory=dict)

    def algorithms(self) -> List[str]:
        return [a for a in ALGORITHM_ORDER if a in self.series]


def figure_configs(
    exp_id: str,
    *,
    duration: float = 3600.0,
    reps: int = 33,
    seed: int = 0,
    routing: str = "aodv",
    overrides: Optional[Dict[str, Any]] = None,
) -> List[ScenarioConfig]:
    """Every run a figure needs, as configs (algorithm-major, then
    repetition with consecutive seed offsets).

    This is the one definition of a figure's runs: :func:`run_figure`
    executes this list, and callers that want several figures flatten
    their lists into one batch, which the executor deduplicates by
    content address (figures 5/7/9/11 share identical runs, as do
    6/8/10/12).
    """
    if exp_id not in _FIG_NODES:
        raise ValueError(f"unknown figure {exp_id!r}; choose from {sorted(_FIG_NODES)}")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    base = ScenarioConfig(
        num_nodes=_FIG_NODES[exp_id], duration=duration, seed=seed, routing=routing
    )
    configs = []
    for alg in ALGORITHM_ORDER:
        cfg = base.with_(algorithm=alg)
        if overrides:
            cfg = cfg.with_(**overrides)
        configs.extend(cfg.for_repetition(r) for r in range(reps))
    return configs


def run_figure(
    exp_id: str,
    *,
    duration: float = 3600.0,
    reps: int = 33,
    seed: int = 0,
    routing: str = "aodv",
    overrides: Optional[Dict[str, Any]] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Run any paper figure by id (``fig5`` ... ``fig12``).

    Plans the runs with :func:`figure_configs`, executes them in one
    :meth:`~repro.experiments.executor.ExperimentExecutor.run_configs`
    call (a fresh in-process executor unless one is passed, e.g. with a
    cache, a pool, or the runs of a prefetched batch), and harvests the
    figure's series: distance and answers by file rank for figures 5/6,
    sorted per-node message curves for figures 7-12.  ``overrides``
    are extra ScenarioConfig fields (e.g. a rebroadcast policy).
    """
    configs = figure_configs(
        exp_id,
        duration=duration,
        reps=reps,
        seed=seed,
        routing=routing,
        overrides=overrides,
    )
    if executor is None:
        executor = ExperimentExecutor()
    runs = executor.run_configs(configs)
    family = _CURVE_FAMILY.get(exp_id)
    result = FigureResult(
        exp_id=exp_id,
        kind="distance_answers" if family is None else "message_curve",
        num_nodes=_FIG_NODES[exp_id],
        duration=duration,
        reps=reps,
        family=family,
    )
    for i, alg in enumerate(ALGORITHM_ORDER):
        alg_runs = runs[i * reps : (i + 1) * reps]
        if family is None:
            dist = mean_ci([r.distance_series()[:TOP_FILES] for r in alg_runs])["mean"]
            answers = mean_ci([r.answers_series()[:TOP_FILES] for r in alg_runs])["mean"]
            result.series[alg] = {"distance": dist, "answers": answers}
            result.totals[alg] = float(np.mean([r.num_queries for r in alg_runs]))
        else:
            curve = sorted_curve_mean([r.sorted_received[family] for r in alg_runs])
            result.series[alg] = {"curve": curve}
            result.totals[alg] = float(np.mean([r.totals[family] for r in alg_runs]))
    return result
