"""Experiment orchestration: dedup, cache, and fan runs out on a pool.

Every consumer of repeated simulation runs --
:func:`~repro.experiments.reproduce.reproduce_all`,
:func:`~repro.experiments.figures.run_figure`,
:func:`~repro.experiments.sweeps.run_sweep`, the benches -- executes
them through one :class:`ExperimentExecutor`:

* a batch of requested :class:`~repro.scenarios.config.ScenarioConfig`\\ s
  is flattened into a **deduplicated unit-of-work list** keyed on the
  content address of :func:`~repro.experiments.cache.run_key` --
  identical (config, seed) jobs requested by different figures run
  once (``experiments.jobs_deduped``);
* unseen jobs consult the optional :class:`~repro.experiments.cache.RunCache`
  (``experiments.cache_hits`` / ``cache_misses``);
* the remainder executes serially or on a shared
  ``ProcessPoolExecutor`` sized by :func:`resolve_processes` and
  chunked by :func:`default_chunksize`, streaming completions back
  **in deterministic submission order** with cache write-back from the
  coordinating process only (workers never touch the store);
* results return in request order, so serial, parallel and cached
  executions are byte-identical downstream.

Simulations are deterministic functions of their config, so none of
this changes any result -- it only changes how many times each result
is computed.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

from ..obs.registry import Registry
from ..scenarios.config import ScenarioConfig
from ..scenarios.runner import RunResult, run_scenario
from .cache import RunCache, run_key

__all__ = ["ExperimentExecutor", "execute_config", "resolve_processes", "default_chunksize"]


def resolve_processes(processes: Optional[int] = None) -> int:
    """Worker count of a pool: ``processes``, or every core for ``None``.

    ``None`` resolves to ``os.cpu_count()`` (floor 1); explicit values
    must be >= 1.  The executor calls it as ``resolve_processes(None)``
    for ``--processes 0``; an unset ``--processes`` never gets here,
    it runs in-process.
    """
    if processes is None:
        return max(1, os.cpu_count() or 1)
    p = int(processes)
    if p < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    return p


def default_chunksize(n_jobs: int, processes: int) -> int:
    """Tasks submitted per worker round trip: ``ceil(n/4p)`` capped at 32.

    Large job lists amortize pickling instead of shipping one task at a
    time, while ~4 rounds per worker keep the tail load-balanced.
    """
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    return max(1, min(32, -(-n_jobs // (4 * max(1, processes)))))


def execute_config(config: ScenarioConfig) -> RunResult:
    """One unit of work (module-level so worker processes can pickle it)."""
    return run_scenario(config)


class ExperimentExecutor:
    """Deduplicating, cache-aware runner for batches of scenario configs.

    Parameters
    ----------
    processes:
        ``None`` or ``1`` executes in-process (the reference lane);
        values > 1 fan jobs out over that many worker processes.
        ``0`` means "every core" (:func:`resolve_processes`).
        A pool ships :func:`default_chunksize` jobs per worker round
        trip.
    cache:
        Optional :class:`RunCache` (or a store path) consulted before
        executing and written back after -- always from this process.
    registry:
        Metrics registry for the orchestration counters (default: a
        private one; a cache created from a path shares it).
    """

    def __init__(
        self,
        *,
        processes: Optional[int] = None,
        cache: Optional[RunCache] = None,
        registry: Optional[Registry] = None,
    ) -> None:
        if processes is not None and processes < 0:
            raise ValueError(f"processes must be >= 0, got {processes}")
        self.processes = (
            resolve_processes(None) if processes == 0 else (processes or 1)
        )
        self._registry = registry if registry is not None else Registry()
        if cache is not None and not isinstance(cache, RunCache):
            cache = RunCache(cache, registry=self._registry)
        self.cache = cache
        self.deduped = self._registry.counter("experiments.jobs_deduped")
        self.executed = self._registry.counter("experiments.jobs_executed")
        #: key -> completed result, shared across batches (figures that
        #: re-request a prefetched run hit this before the cache)
        self._memo: Dict[str, RunResult] = {}

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Orchestration counters (cache counters when a cache rides along)."""
        out = {
            "jobs_deduped": float(self.deduped.value),
            "jobs_executed": float(self.executed.value),
        }
        if self.cache is not None:
            out["cache_hits"] = float(self.cache.hits.value)
            out["cache_misses"] = float(self.cache.misses.value)
        return out

    def _execute(self, configs: Sequence[ScenarioConfig]) -> List[RunResult]:
        """Run ``configs`` (already unique and uncached) in order."""
        if not configs:
            return []
        if self.processes > 1 and len(configs) > 1:
            chunksize = default_chunksize(len(configs), self.processes)
            with ProcessPoolExecutor(max_workers=self.processes) as pool:
                stream = pool.map(execute_config, configs, chunksize=chunksize)
                return self._collect(configs, stream)
        return self._collect(configs, map(execute_config, configs))

    def _collect(self, configs, stream) -> List[RunResult]:
        """Drain completions in submission order, writing back as they land."""
        results: List[RunResult] = []
        if self.cache is not None:
            with self.cache.store.batch():
                for config, result in zip(configs, stream):
                    self.cache.put(config, result)
                    self.executed.inc()
                    results.append(result)
        else:
            for result in stream:
                self.executed.inc()
                results.append(result)
        return results

    # ------------------------------------------------------------------
    def run_configs(self, configs: Sequence[ScenarioConfig]) -> List[RunResult]:
        """Results for ``configs``, in request order.

        Plans the batch as unique jobs (first-request order), satisfies
        what it can from the in-memory memo and the cache, executes the
        rest, and maps results back onto the request list.
        """
        keys = [run_key(c) for c in configs]
        unique: Dict[str, ScenarioConfig] = {}
        for key, config in zip(keys, configs):
            if key in unique:
                self.deduped.inc()
            else:
                unique[key] = config
        todo: List[ScenarioConfig] = []
        for key, config in unique.items():
            if key in self._memo:
                continue
            if self.cache is not None:
                cached = self.cache.get(config)
                if cached is not None:
                    self._memo[key] = cached
                    continue
            todo.append(config)
        for config, result in zip(todo, self._execute(todo)):
            self._memo[run_key(config)] = result
        return [self._memo[key] for key in keys]

    def run_config(self, config: ScenarioConfig) -> RunResult:
        """Single-config convenience over :meth:`run_configs`."""
        return self.run_configs([config])[0]
