"""Structured parameter sweeps over scenarios.

The paper's evaluation and its future-work list are all sweeps: node
count, mobility, density, churn, algorithm.  This module gives them a
single engine:

* a :class:`SweepSpec` names one config field and its values (grid
  sweeps compose several specs);
* :func:`run_sweep` executes the cartesian grid, optionally across
  repetitions, through the
  :class:`~repro.experiments.executor.ExperimentExecutor` -- the grid
  is flattened into per-(point, repetition) jobs, so repetitions
  parallelize too (each run is an independent simulation --
  embarrassingly parallel, the HPC story of this package) and a cache
  makes re-swept points O(1) lookups;
* results come back as :class:`SweepPointResult` rows in grid order
  with the metrics the figures need, ready for
  `experiments.report.render_table`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..scenarios.config import ScenarioConfig
from ..scenarios.runner import RunResult
from .executor import ExperimentExecutor

__all__ = ["SweepSpec", "SweepPointResult", "sweep_grid", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    """One swept dimension: a ScenarioConfig field and its values."""

    field: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"sweep over {self.field!r} needs at least one value")
        if self.field not in ScenarioConfig.__dataclass_fields__:
            raise ValueError(f"unknown ScenarioConfig field {self.field!r}")


@dataclass
class SweepPointResult:
    """Aggregated outcome of one grid point (over its repetitions)."""

    point: Dict[str, Any]
    reps: int
    #: mean network totals by family
    totals: Dict[str, float]
    #: mean overlay degree at the end of the runs
    mean_degree: float
    #: mean query answer rate
    answer_rate: float
    #: mean total energy (J)
    energy: float
    #: mean kernel events (cost proxy)
    events: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (archival / ``sweep --json``)."""
        return {
            "point": dict(self.point),
            "reps": int(self.reps),
            "totals": {k: float(v) for k, v in self.totals.items()},
            "mean_degree": float(self.mean_degree),
            "answer_rate": float(self.answer_rate),
            "energy": float(self.energy),
            "events": float(self.events),
        }


def sweep_grid(specs: Sequence[SweepSpec]) -> List[Dict[str, Any]]:
    """The cartesian product of all specs as config-override dicts."""
    if not specs:
        raise ValueError("need at least one SweepSpec")
    names = [s.field for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate sweep fields in {names}")
    grid = []
    for combo in itertools.product(*[s.values for s in specs]):
        grid.append(dict(zip(names, combo)))
    return grid


def _aggregate_point(
    overrides: Dict[str, Any], runs: Sequence[RunResult]
) -> SweepPointResult:
    """Fold one grid point's repetitions into a :class:`SweepPointResult`."""
    answer_rates = []
    for r in runs:
        answered = sum(s.answered for s in r.file_stats)
        total = sum(s.queries for s in r.file_stats)
        answer_rates.append(answered / total if total else 0.0)
    fams = runs[0].totals.keys()
    return SweepPointResult(
        point=dict(overrides),
        reps=len(runs),
        totals={f: float(np.mean([r.totals[f] for r in runs])) for f in fams},
        mean_degree=float(np.mean([r.overlay_stats["mean_degree"] for r in runs])),
        answer_rate=float(np.mean(answer_rates)),
        energy=float(np.mean([r.energy.sum() for r in runs])),
        events=float(np.mean([r.events for r in runs])),
    )


def run_sweep(
    base: ScenarioConfig,
    specs: Sequence[SweepSpec],
    *,
    reps: int = 1,
    processes: Optional[int] = None,
    store=None,
    cache=None,
    executor: Optional[ExperimentExecutor] = None,
) -> List[SweepPointResult]:
    """Run the grid defined by ``specs`` on top of ``base``.

    Parameters
    ----------
    base:
        The scenario every point starts from.
    specs:
        Swept dimensions (cartesian product).
    reps:
        Repetitions per point (seed offsets, like the paper's 33).
    processes:
        If given and > 1, distribute the flattened (point, repetition)
        jobs over that many worker processes (``0``: every core); each
        job is an independent, deterministic simulation so results are
        identical to the serial run.  Repetitions parallelize like grid
        points do -- a 1-point, 33-rep sweep fills the pool.  Each worker
        round trip carries :func:`~repro.experiments.executor.default_chunksize` jobs --
        ``ceil(n_jobs / (4 * processes))`` capped at 32 -- so large
        grids of small points amortize pickling instead of shipping
        one-at-a-time, while keeping ~4 rounds per worker for load
        balance.  Results come back in grid order either way.
    store:
        Optional :class:`~repro.experiments.storage.ResultStore`; each
        point result is appended as a ``sweep_point`` record (from the
        coordinating process -- workers never write).
    cache:
        Optional :class:`~repro.experiments.cache.RunCache` (or store /
        ndjson path) memoizing every completed run, making re-swept
        points O(1) lookups and interrupted sweeps resumable.
    executor:
        Bring-your-own :class:`ExperimentExecutor` (overrides
        ``processes`` / ``cache``); lets several sweeps share one memo
        and its counters.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    grid = sweep_grid(specs)
    if executor is None:
        executor = ExperimentExecutor(processes=processes, cache=cache)
    point_cfgs = [base.with_(**overrides) for overrides in grid]
    batch = [cfg.for_repetition(r) for cfg in point_cfgs for r in range(reps)]
    runs = executor.run_configs(batch)
    results = [
        _aggregate_point(overrides, runs[i * reps : (i + 1) * reps])
        for i, overrides in enumerate(grid)
    ]
    if store is not None:
        for point in results:
            store.append("sweep_point", point.to_dict(), reps=reps)
    return results
