"""One benchmark rep, in its own process: ``python -m bench.child ...``.

The parent (:mod:`bench.run`) starts one of these per rep, strictly one
at a time, and reads a single JSON object from the last line of stdout.
A fresh interpreter per rep matters: three in-process repeats of one
scenario drift 7.7 -> 9.1 -> 9.4 s while RSS climbs 67 -> 173 MB,
whereas fresh processes agree to 8.52 / 8.62 / 8.66 s (ISSUE 11).

Modes:

* ``rep`` -- the untraced run every end-to-end number comes from;
* ``traced`` -- the same work with :mod:`bench.instrument` installed
  before anything is built; must reproduce the untraced digests;
* ``parallel`` -- ``reproduce_figs`` only: the cold pass again with two
  worker processes (``experiments.parallel_cold_s``).

Timeline of a child, all on CLOCK_MONOTONIC so the parent's spawn
timestamp and the child's are comparable:

    spawned_at --(interpreter, imports, builds / planning)--> ready
    ready      --(run + harvest + serialise)----------------> done
    done       --(untimed: checks, digests, warm replays)---> exit

In a ``rep`` child :mod:`bench.hostprobe` reads every 50 ms how slow the
host is, once from the top of :func:`main` to ready and once from ready
to done.

``--workdir`` is a scratch directory the parent made and removes (so a
killed child leaves nothing behind); only ``reproduce_figs`` writes there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Dict, List, Optional

from .check import check_overlay, check_result, combine_digests, files_digest, result_digest
from .hostprobe import HostProbe
from .workloads import WARM_PASSES, WORKLOADS, Workload


class TimedWindow:
    """The ready -> done window of one child: its wall time and, in a
    ``rep`` child (``probed=True``), the host slowdown a
    :class:`~bench.hostprobe.HostProbe` read every 50 ms while it lasted."""

    def __init__(self, probed: bool) -> None:
        self.probe = HostProbe() if probed else None
        self.run_s = 0.0

    def __enter__(self) -> "TimedWindow":
        if self.probe:
            self.probe.start()
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.run_s = perf_counter() - self._t0
        if self.probe:
            self.probe.stop()

    def report(self) -> Dict[str, Any]:
        return {
            "run_s": self.run_s,
            # 1 = the nominal host, 1.5 = a host half as slow again; None: not probed
            "host_slowdown": self.probe.slowdown() if self.probe else None,
        }


def _ready(args: argparse.Namespace) -> Dict[str, Any]:
    """Set-up is over: its wall since the parent's spawn call, and what
    the probe :func:`main` started (``rep`` children) read of the host
    from then on -- all of set-up but the interpreter's own start and the
    numpy import, about 0.15 s, which are taken to have gone the same."""
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_probe is None:
        return {"setup_s": setup_s, "setup_slowdown": None}
    args.setup_probe.stop()
    return {"setup_s": setup_s, "setup_slowdown": args.setup_probe.slowdown()}


def _span_of(tracer: Any):
    """``tracer.span`` or, untraced, a do-nothing stand-in."""
    return tracer.span if tracer is not None else (lambda name, layer: nullcontext())


def _counter_totals(results: List[Any]) -> Dict[str, float]:
    """Registry readings summed over runs, labels folded away."""
    out: Dict[str, float] = {}
    for r in results:
        for key, value in r.counters.items():
            name = key.split("{", 1)[0]
            out[name] = out.get(name, 0.0) + value
    return out


def _simulated_facts(results: List[Any]) -> Dict[str, float]:
    """What the runs simulated, pooled: the paper's cost and answer axes."""
    return {
        "events": sum(r.events for r in results),
        "queries": sum(r.num_queries for r in results),
        "answered": sum(sum(s.answered for s in r.file_stats) for r in results),
        "p2p_received": sum(sum(r.totals.values()) for r in results),
        "member_seconds": sum(len(r.members) * r.config.duration for r in results),
        "sim_seconds": sum(r.config.duration for r in results),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


# ----------------------------------------------------------------------
# scenario workloads
# ----------------------------------------------------------------------
def run_scenarios(w: Workload, args: argparse.Namespace, tracer: Any) -> Dict[str, Any]:
    from repro.scenarios.builder import build_scenario
    from repro.scenarios import runner

    span = _span_of(tracer)
    configs = w.scenario_configs(args.seed, args.scale)
    simulations = [build_scenario(c) for c in configs]
    ready = _ready(args)

    ops: List[Dict[str, Any]] = []
    results: List[Any] = []
    span_lo = len(tracer) if tracer is not None else 0
    with TimedWindow(probed=args.mode == "rep") as window:
        for config, simulation in zip(configs, simulations):
            op: Dict[str, Any] = {"name": config.algorithm, "digest": None, "error": None}
            ops.append(op)
            try:
                simulation.run()
                result = runner.harvest(simulation)
                with span("scenarios.json_dumps", "scenarios"):
                    json.dumps(result.to_dict())
                results.append(result)
            except Exception as exc:  # an operation that raises is a failed operation
                op["error"] = f"{type(exc).__name__}: {exc}"
                results.append(None)
    span_hi = len(tracer) if tracer is not None else 0
    rss = _peak_rss_mb()

    for op, simulation, result in zip(ops, simulations, results):
        if result is not None:
            op["error"] = check_result(result) or check_overlay(simulation)
            op["digest"] = result_digest(result)
    done = [result for result in results if result is not None]
    return {
        **ready,
        **window.report(),
        "run_spans": [span_lo, span_hi],
        "peak_rss_mb": rss,
        "ops": ops,
        "counters": _counter_totals(done),
        "facts": _simulated_facts(done),
    }


# ----------------------------------------------------------------------
# reproduce_figs
# ----------------------------------------------------------------------
def _read_dir(path: str) -> Dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def run_reproduce(w: Workload, args: argparse.Namespace, tracer: Any) -> Dict[str, Any]:
    from repro.experiments.cache import RunCache, run_key
    from repro.experiments.executor import ExperimentExecutor
    from repro.experiments.figures import figure_configs
    from repro.experiments.paper_values import compare_with_paper
    from repro.experiments.reproduce import reproduce_all
    from repro.obs.registry import Registry

    span = _span_of(tracer)
    settings = w.reproduce_settings(args.seed, args.scale)
    figures = settings["figures"]
    plan = {k: settings[k] for k in ("duration", "reps", "seed")}
    batch = [c for fig in figures for c in figure_configs(fig, **plan)]
    archive = os.path.join(args.workdir, "archive.ndjson")
    processes = 2 if args.mode == "parallel" else 1

    def executor_on(path: str) -> ExperimentExecutor:
        registry = Registry()
        return ExperimentExecutor(
            processes=processes,
            cache=RunCache(path, registry=registry),
            registry=registry,
        )

    executor = executor_on(archive)
    ready = _ready(args)

    cold_dir = os.path.join(args.workdir, "cold")
    error: Optional[str] = None
    figure_results: Dict[str, Any] = {}
    span_lo = len(tracer) if tracer is not None else 0
    with TimedWindow(probed=args.mode == "rep") as window:
        try:
            with span("experiments.reproduce_all", "experiments"):
                figure_results = reproduce_all(cold_dir, executor=executor, **settings)
        except Exception as exc:  # the whole batch failed
            error = f"{type(exc).__name__}: {exc}"
    span_hi = len(tracer) if tracer is not None else 0
    rss = _peak_rss_mb()
    if args.mode == "parallel" or error is not None:
        unique = len({run_key(c) for c in batch})
        return {
            **ready,
            **window.report(),
            "peak_rss_mb": rss,
            "ops": [{"name": f"job{i}", "digest": None, "error": error} for i in range(unique)],
        }

    cold_stats = executor.stats()
    # One operation per executed job; memoized, so this re-runs nothing.
    unique: Dict[str, Any] = {}
    for config, result in zip(batch, executor.run_configs(batch)):
        unique.setdefault(run_key(config), (config, result))
    ops = []
    for config, result in unique.values():
        ops.append(
            {
                "name": f"n{config.num_nodes}.{config.algorithm}.s{config.seed}",
                "digest": result_digest(result),
                "error": check_result(result),
            }
        )
    cold_files = _read_dir(cold_dir)

    passes: List[float] = []
    hits = lookups = 0
    for n in range(WARM_PASSES):
        # A directory of its own per pass: overwriting the previous
        # pass's files costs 5-11 ms with 50 ms spikes on this ext4
        # (truncate + discard), creating them 2 ms -- filesystem noise
        # that is not the program's.
        warm_dir = os.path.join(args.workdir, f"warm{n}")
        warm = executor_on(archive)
        t0 = perf_counter()
        with span("experiments.reproduce_all", "experiments"):
            reproduce_all(warm_dir, executor=warm, **settings)
        passes.append(perf_counter() - t0)
        stats = warm.stats()
        hits += int(stats["cache_hits"])
        lookups += int(stats["cache_hits"] + stats["cache_misses"])
        if error is None and stats["jobs_executed"] != 0:
            error = f"warm pass executed {stats['jobs_executed']:g} jobs"
        if error is None and _read_dir(warm_dir) != cold_files:
            error = "warm artifacts differ from the cold pass's"
    if error is not None:
        for op in ops:
            op["error"] = op["error"] or error

    rows = [row for fig in figures for row in compare_with_paper(figure_results[fig])]
    results = [result for _, result in unique.values()]
    return {
        **ready,
        **window.report(),
        "run_spans": [span_lo, span_hi],
        "peak_rss_mb": rss,
        "warm_pass_s": passes,
        "ops": ops,
        "artifacts_digest": files_digest(cold_files),  # folded into "digest"
        "counters": _counter_totals(results),
        "facts": _simulated_facts(results),
        "experiments": {
            "jobs_planned": len(batch),
            "jobs_executed": int(cold_stats["jobs_executed"]),
            "jobs_deduped": int(cold_stats["jobs_deduped"]),
            "cache_hits": hits,
            "cache_lookups": lookups,
            "archive_bytes": os.path.getsize(archive),
            "claims_hold": sum(1 for row in rows if row["holds"] is True),
            "claims_decided": sum(1 for row in rows if row["holds"] is not None),
        },
    }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("rep", "traced", "parallel"), default="rep")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    args.setup_probe = None
    if args.mode == "rep":
        args.setup_probe = HostProbe()
        args.setup_probe.start()
    w = WORKLOADS[args.workload]
    tracer = inst = None
    if args.mode == "traced":
        from .instrument import Instrumentation
        from .trace import Tracer

        tracer = Tracer()
        inst = Instrumentation(tracer).install()
    runner = run_scenarios if w.kind == "scenarios" else run_reproduce
    out = runner(w, args, tracer)
    out["digest"] = combine_digests(
        [str(op["digest"]) for op in out["ops"]] + [out.get("artifacts_digest", "")]
    )
    if "warm_pass_s" in out:
        out["warm_replay_ms"] = statistics.median(out["warm_pass_s"]) * 1e3
    if tracer is not None and inst is not None:
        out["trace"] = tracer.summary(tuple(out.get("run_spans", (0, 0))))
        out["trace"]["peak_pending"] = inst.peak_pending
        out["trace"]["route_failures"] = inst.route_failures
        out["trace"]["series"] = sum(len(s.registry) for s in inst.simulations)
        out["trace"]["rreq_sent"] = sum(
            s.router.control_overhead().get("rreq_sent", 0)
            for s in inst.simulations
            if hasattr(s.router, "control_overhead")
        )
        if args.spans_out:
            tracer.write(args.spans_out)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
