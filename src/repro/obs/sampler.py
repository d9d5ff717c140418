"""Sim-time metric sampling into a time-series.

A :class:`Sampler` is a lightweight kernel process that, every
``interval`` simulated seconds, snapshots the registry (counters and
gauges) into one row of a time-series.  Typical
registered sources make the rows read like a flight recorder: overlay
size, open connections, cumulative messages by family, kernel heap
depth, consumed energy.

Determinism
-----------
Sampling must never change what it measures, so the sampler

* schedules itself as *daemon* events -- the kernel dispatches them but
  excludes them from ``kernel.events_dispatched`` (results are bit-identical
  with and without a sampler attached);
* runs at :class:`~repro.sim.events.Priority.LOW` so same-instant
  protocol activity is always observed *after* it happened;
* reads metrics only; it draws no randomness and mutates no state.

Two runs of the same seeded scenario therefore produce identical rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.events import Priority
from .registry import Registry

__all__ = ["Sampler"]


class Sampler:
    """Periodic registry snapshotter.

    Parameters
    ----------
    sim:
        The simulator to follow (provides the clock and scheduling).
    registry:
        The metrics to snapshot.
    interval:
        Simulated seconds between rows (must be positive).

    Rows hold :meth:`Registry.aggregated`, which leaves the wall-clock
    timers out: they measure the host machine, not the simulation, and
    would break run-to-run reproducibility of the series.
    """

    def __init__(self, sim, registry: Registry, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.registry = registry
        self.interval = float(interval)
        #: collected rows: ``{"t": time, "<metric-key>": value, ...}``
        self.rows: List[Dict[str, float]] = []
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first tick (``interval`` seconds from now)."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(
            self.interval, self._tick, priority=Priority.LOW, daemon=True
        )

    def _tick(self) -> None:
        self.sample_now()
        self.sim.schedule(
            self.interval, self._tick, priority=Priority.LOW, daemon=True
        )

    # ------------------------------------------------------------------
    def sample_now(self) -> Dict[str, float]:
        """Snapshot one row at the current sim time (also appended)."""
        row: Dict[str, float] = {"t": float(self.sim.now)}
        row.update(self.registry.aggregated())
        self.rows.append(row)
        return row

    # ------------------------------------------------------------------
    # series access
    # ------------------------------------------------------------------
    def series(self, key: str) -> Tuple[List[float], List[float]]:
        """``(times, values)`` of one metric key across all rows.

        Rows missing the key (metric registered mid-run) contribute 0.
        """
        times = [r["t"] for r in self.rows]
        values = [float(r.get(key, 0.0)) for r in self.rows]
        return times, values

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Sampler interval={self.interval} rows={len(self.rows)}>"
