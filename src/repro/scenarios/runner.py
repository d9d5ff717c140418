"""Scenario runner: execute scenarios and harvest results.

A :class:`RunResult` carries everything the paper's figures need from
one run.  Repeated runs (the paper's 33 repetitions) are planned by
:func:`repro.experiments.figures.figure_configs` and executed by
:class:`repro.experiments.executor.ExperimentExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..metrics.aggregate import FileRankStats, per_file_stats
from ..metrics.analytics import AnalyticsEngine
from ..metrics.lifetimes import lifetime_summary
from ..obs.export import to_plain
from ..obs.manifest import RunManifest
from ..obs.schema import RUN_SCHEMA_VERSION, validate_run_dict
from .builder import Simulation, build_scenario
from .config import ScenarioConfig

__all__ = ["RunResult", "run_scenario"]


@dataclass
class RunResult:
    """Harvested outputs of one scenario run."""

    config: ScenarioConfig
    members: List[int]
    #: family -> per-member counts sorted decreasing (Figures 7-12 curves)
    sorted_received: Dict[str, np.ndarray]
    #: family -> network total
    totals: Dict[str, int]
    #: Figures 5/6 series, one entry per file rank
    file_stats: List[FileRankStats]
    #: final-overlay small-world stats (clustering, path length, refs)
    overlay_stats: Dict[str, float]
    #: per-node joules consumed
    energy: np.ndarray
    #: number of issued (closed) queries
    num_queries: int
    #: kernel events dispatched (cost diagnostics)
    events: int
    #: family -> load-balance metrics over members (gini, jain, ...)
    balance: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: lifetime stats of closed connections by class (regular / random)
    connection_lifetimes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: final registry counters/gauges/histograms (``Registry.aggregated``)
    counters: Dict[str, float] = field(default_factory=dict)
    #: sampled time-series rows (empty unless ``config.obs_interval > 0``)
    timeseries: List[Dict[str, float]] = field(default_factory=list)
    #: per-run provenance (config hash, seed, revision, wall clock)
    manifest: Optional[RunManifest] = None
    #: wall-clock ``{section: (seconds, calls)}`` breakdown
    wall: Dict[str, Tuple[float, int]] = field(default_factory=dict)

    def answers_series(self) -> np.ndarray:
        """Average answers per request by file rank (fig 5/6 right axis)."""
        return np.array([s.avg_answers for s in self.file_stats])

    def distance_series(self) -> np.ndarray:
        """Average min p2p distance by file rank (fig 5/6 left axis)."""
        return np.array([s.avg_min_p2p_hops for s in self.file_stats])

    # ------------------------------------------------------------------
    # versioned serialization (schema v1, see repro.obs.schema)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe schema-v1 dict (numpy arrays -> lists, NaN -> None)."""
        d: Dict[str, Any] = {
            "schema_version": RUN_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            # Flat convenience keys (kept for pre-schema consumers).
            "algorithm": self.config.algorithm,
            "num_nodes": self.config.num_nodes,
            "duration": self.config.duration,
            "seed": self.config.seed,
            "routing": self.config.routing,
            "members": [int(m) for m in self.members],
            "totals": dict(self.totals),
            "sorted_received": {k: v for k, v in self.sorted_received.items()},
            "file_stats": [
                {
                    "file_id": s.file_id,
                    "queries": s.queries,
                    "answered": s.answered,
                    "avg_answers": s.avg_answers,
                    "avg_min_p2p_hops": s.avg_min_p2p_hops,
                    "avg_min_adhoc_hops": s.avg_min_adhoc_hops,
                }
                for s in self.file_stats
            ],
            "overlay_stats": dict(self.overlay_stats),
            "energy": self.energy,
            "energy_total": float(self.energy.sum()),
            "num_queries": self.num_queries,
            "events": self.events,
            "balance": self.balance,
            "connection_lifetimes": self.connection_lifetimes,
        }
        obs: Dict[str, Any] = {}
        if self.counters:
            obs["counters"] = dict(self.counters)
        if self.timeseries:
            obs["timeseries"] = [dict(r) for r in self.timeseries]
        if self.manifest is not None:
            obs["manifest"] = self.manifest.to_dict()
        if self.wall:
            obs["wall"] = {
                k: {"seconds": s, "calls": c} for k, (s, c) in self.wall.items()
            }
        if obs:
            d["obs"] = obs
        return to_plain(d)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict` (validates against the schema)."""
        validate_run_dict(d)
        cfg = ScenarioConfig.from_dict(d["config"])

        def _nan(v):
            return float("nan") if v is None else float(v)

        obs = d.get("obs") or {}
        manifest_d = obs.get("manifest")
        wall_d = obs.get("wall") or {}
        return cls(
            config=cfg,
            members=[int(m) for m in d["members"]],
            sorted_received={
                k: np.asarray(v, dtype=np.int64)
                for k, v in d["sorted_received"].items()
            },
            totals={k: int(v) for k, v in d["totals"].items()},
            file_stats=[
                FileRankStats(
                    file_id=int(e["file_id"]),
                    queries=int(e["queries"]),
                    answered=int(e["answered"]),
                    avg_answers=float(e["avg_answers"]),
                    avg_min_p2p_hops=_nan(e["avg_min_p2p_hops"]),
                    avg_min_adhoc_hops=_nan(e["avg_min_adhoc_hops"]),
                )
                for e in d["file_stats"]
            ],
            overlay_stats=dict(d["overlay_stats"]),
            energy=np.asarray(d["energy"], dtype=float),
            num_queries=int(d["num_queries"]),
            events=int(d["events"]),
            balance={k: dict(v) for k, v in d["balance"].items()},
            connection_lifetimes={
                k: dict(v) for k, v in d["connection_lifetimes"].items()
            },
            counters=dict(obs.get("counters") or {}),
            timeseries=[dict(r) for r in (obs.get("timeseries") or [])],
            manifest=(
                RunManifest.from_dict(manifest_d, config=d["config"])
                if manifest_d
                else None
            ),
            wall={
                k: (float(v["seconds"]), int(v["calls"])) for k, v in wall_d.items()
            },
        )


def harvest(simulation: Simulation) -> RunResult:
    """Extract a RunResult from a finished simulation.

    All graph/collector analytics go through the simulation's
    :class:`~repro.metrics.analytics.AnalyticsEngine`, which recomputes
    from the final state: this is the one harvest of a run.
    """
    cfg = simulation.config
    metrics = simulation.metrics
    members = simulation.members
    records = simulation.overlay.query_records()
    registry = simulation.registry
    engine = simulation.analytics
    if engine is None:  # hand-built Simulation without an engine
        engine = AnalyticsEngine(registry=registry)
    return RunResult(
        config=cfg,
        members=members,
        sorted_received=engine.message_curves(metrics, members),
        totals=engine.message_totals(metrics),
        file_stats=per_file_stats(records, cfg.num_files),
        overlay_stats=engine.smallworld_stats(*simulation.overlay.csr()),
        energy=simulation.world.energy.consumed.copy(),
        num_queries=len(records),
        events=int(registry.value("kernel.events_dispatched")),
        balance=engine.load_balance(metrics, members),
        connection_lifetimes=lifetime_summary(simulation.lifetimes),
        counters=registry.aggregated(),
        timeseries=(
            [dict(r) for r in simulation.sampler.rows]
            if simulation.sampler is not None
            else []
        ),
        manifest=simulation.manifest,
        wall=registry.wall_times(),
    )


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Build, run and harvest one scenario."""
    t0 = perf_counter()
    simulation = build_scenario(cfg)
    registry = simulation.registry
    registry.timer("wall", section="scenario.build").add(perf_counter() - t0)
    with registry.timed("scenario.run"):
        simulation.run()
    with registry.timed("scenario.harvest"):
        result = harvest(simulation)
    # harvest() read the wall timers while "scenario.harvest" was still
    # open; read them again so that section reaches the result too.  The
    # read touches only the timers, never the per-node series.
    result.wall = registry.wall_times()
    return result

