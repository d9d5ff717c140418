"""Unified observability layer: registry, sampler, manifest, exporters.

One surface for everything a run can tell you about itself:

* :class:`Registry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` / :class:`Timer` instruments, labeled by layer /
  family / plane / protocol, never by node -- every counter in the
  simulator is registered here, and ``registry.value(name, **labels)``
  (or ``RunResult.counters`` after a run) is the one place to read it;
* :class:`Sampler` -- the one time-series sampler: snapshots the
  registry on a sim-time interval (``ScenarioConfig.obs_interval``)
  into a deterministic time-series;
* :class:`RunManifest` -- per-run provenance (config hash, seed, git
  revision, wall clock, peak counters);
* :func:`to_plain`, the JSON-safe conversion of run results;
* the versioned run-result schema (:data:`RUN_SCHEMA_VERSION`,
  :func:`validate_run_dict`) consumed by storage, sweeps and the CLI;
* semantic A/B comparison (:func:`semantic_snapshot`,
  :func:`snapshot_diff`) -- registry equality modulo scheduler-cost
  metrics, the contract the batched-delivery fast lane is proven
  against.

:meth:`Registry.timed` adds wall-clock section timing for the
``run --stats`` breakdown.
"""

from .compare import (
    SCHEDULER_COST_METRICS,
    is_scheduler_cost_key,
    semantic_snapshot,
    semantic_timeseries,
    snapshot_diff,
)
from .export import to_plain
from .manifest import RunManifest, config_hash, git_revision
from .registry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    Sample,
    Timer,
)
from .sampler import Sampler
from .schema import RUN_SCHEMA_VERSION, SchemaError, validate_run_dict

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Registry",
    "Sample",
    "Sampler",
    "RunManifest",
    "config_hash",
    "git_revision",
    "to_plain",
    "RUN_SCHEMA_VERSION",
    "SchemaError",
    "validate_run_dict",
    "SCHEDULER_COST_METRICS",
    "is_scheduler_cost_key",
    "semantic_snapshot",
    "semantic_timeseries",
    "snapshot_diff",
]
