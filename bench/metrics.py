"""Metric declarations and how each value is derived from child output.

``END_TO_END`` and ``PER_LAYER`` are the single source of truth:
``BENCHMARK.json`` must list exactly these names, units and directions
(``bench/tests`` checks it), the README's glossary is generated from
the same rows, and ``run.py`` prints them.

Every end-to-end metric exists on every workload and is never zero, as
the driver's contract demands; that is why ISSUE 11's workload-specific
figures (``answer_rate``, ``paper_claims_share``, ``warm_replay_s``, raw
``run_s``, the paper's ``msgs_per_member``) live in ``PER_LAYER`` -- see
the README's "what changed from the issue" section.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "host_slowdown", "end_to_end", "per_layer", "summarise"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: how it is measured
    what: str
    #: end-to-end only: share of the parent's median it may worsen by
    bound: Optional[float] = None
    #: per-layer only: the end-to-end metric / workload it should move
    moves: str = ""


END_TO_END: List[Metric] = [
    Metric(
        "setup_s",
        "s",
        "lower",
        "parent's spawn call -> child ready to simulate, one clock: interpreter start, "
        "imports, every build_scenario (reproduce_figs: planning + cache open), in nominal-host "
        "time like run_us_per_tx (probed from the child's first line on); median over reps",
        bound=0.25,
    ),
    Metric(
        "run_us_per_tx",
        "us/tx",
        "lower",
        "ready -> results serialised (Simulation.run + harvest + to_dict -> JSON; reproduce_figs: "
        "the cold reproduce_all pass) divided by simulated radio transmissions (net.frames_sent, a "
        "semantic count fixed by the seed), in nominal-host time: each rep's wall divided by the host "
        "speed bench/hostprobe.py read while it ran; median over reps",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb",
        "MB",
        "lower",
        "child's ru_maxrss when the results are serialised; median over reps",
        bound=0.2,
    ),
]


def _m(name: str, unit: str, better: str, what: str, moves: str) -> Metric:
    return Metric(name, unit, better, what, moves=moves)


_DENSE = "run_us_per_tx on dense_query"
_METRO = "run_us_per_tx on metro_mobility"
_PAPER = "run_us_per_tx on paper_table2"
_REPRO = "run_us_per_tx on reproduce_figs"

PER_LAYER: List[Metric] = [
    # ---- sim ----------------------------------------------------------
    _m("sim.self_s", "s", "lower", "self time of kernel spans (schedule_at, cancel, peek_time, kernel-owned events)", _METRO + " (20k pending timers) and dense_query; flat on paper_table2 (shallow queue)"),
    _m("sim.events", "count", "lower", "kernel.events_dispatched (logical events; semantic)", "none: a change here is a simulated-behaviour change"),
    _m("sim.heap_pushes", "count", "lower", "kernel.heap_pushes (raw queue entries)", _DENSE),
    _m("sim.events_per_s", "1/s", "higher", "logical events per wall second of the untraced run", _DENSE),
    _m("sim.cancelled_share", "ratio", "lower", "kernel.events_skipped / heap_pushes: pushes wasted on cancelled events", _PAPER + " (timer churn)"),
    _m("sim.peak_pending", "count", "lower", "deepest live-event count seen before a dispatch", _METRO + " and dense_query"),
    # ---- mobility -----------------------------------------------------
    _m("mobility.self_s", "s", "lower", "self time in MobilityModel.positions/positions_of/next_change_horizon", _METRO),
    _m("mobility.position_evals", "count", "lower", "calls of positions + positions_of", _METRO),
    # ---- topology -----------------------------------------------------
    _m("topology.self_s", "s", "lower", "self time of both topology backends + World.positions", _DENSE + " (reads), " + _METRO + " (writes)"),
    _m("topology.refresh_calls", "count", "lower", "TopologyBackend.refresh calls (most return at once)", _METRO),
    _m("topology.refresh_s", "s", "lower", "self time of refresh spans (position evaluation excluded)", _METRO + "; must not rise when a read-side cache lands"),
    _m("topology.neighbors_calls", "count", "lower", "TopologyBackend.neighbors calls", _DENSE),
    _m("topology.neighbors_s", "s", "lower", "self time of neighbors spans (a refresh it triggers is charged to refresh_s)", _DENSE),
    _m("topology.hops_from_calls", "count", "lower", "TopologyBackend.hops_from calls", _DENSE),
    _m("topology.csr_builds", "count", "lower", "topology.csr_builds", _METRO),
    _m("topology.rebuilds", "count", "lower", "topology.rebuilds (snapshots actually recomputed)", _METRO),
    _m("topology.kinetic_skip_share", "ratio", "higher", "kinetic_skips / (kinetic_skips + rebuilds)", _PAPER + " (long pauses)"),
    _m("topology.dist_cache_hit_share", "ratio", "higher", "dist_cache_hits / hops_from calls", _DENSE),
    # ---- radio --------------------------------------------------------
    _m("radio.self_s", "s", "lower", "self time of Channel.broadcast/unicast and radio-owned delivery events (incl. energy charges)", _DENSE + "; also reproduce_figs cold (150-node figures)"),
    _m("radio.broadcast_calls", "count", "lower", "Channel.broadcast calls", _DENSE),
    _m("radio.unicast_calls", "count", "lower", "Channel.unicast calls", _PAPER),
    _m("radio.frames_sent", "count", "lower", "net.frames_sent (semantic; the run_us_per_tx denominator)", "none: a change here is a simulated-behaviour change"),
    _m("radio.frames_delivered", "count", "lower", "net.frames_delivered (semantic)", "none: a change here is a simulated-behaviour change"),
    _m("radio.copies_per_tx", "ratio", "lower", "frames_delivered / frames_sent: fan-out per transmission", _DENSE),
    _m("radio.unicast_fail_share", "ratio", "lower", "unicast calls that found no link / unicast calls", _PAPER),
    # ---- flood --------------------------------------------------------
    _m("flood.self_s", "s", "lower", "self time of FloodManager.originate and flood frame handlers", _DENSE),
    _m("flood.originated", "count", "lower", "flood.originated", _DENSE),
    _m("flood.forwarded", "count", "lower", "flood.forwarded", _DENSE),
    _m("flood.duplicate_share", "ratio", "lower", "flood.duplicates / flood copies received: deliveries wasted on dedup", _DENSE),
    _m("flood.suppressed", "count", "higher", "flood.suppressed (0 under the reference flood policy)", _DENSE),
    # ---- routing ------------------------------------------------------
    _m("routing.self_s", "s", "lower", "self time of Router.send/route_hops and routing frame handlers", _DENSE + " and " + _PAPER),
    _m("routing.send_calls", "count", "lower", "Router.send calls", _DENSE),
    _m("routing.rreq_sent", "count", "lower", "AODV route requests originated (control_overhead())", _DENSE),
    _m("routing.delivered_share", "ratio", "higher", "upper-layer deliveries / Router.send calls", "query.answered_share if delivery changes"),
    _m("routing.discovery_fail_share", "ratio", "lower", "sends whose on_fail fired / Router.send calls", "query.answered_share if delivery changes"),
    # ---- overlay ------------------------------------------------------
    _m("overlay.self_s", "s", "lower", "self time of Servent, the four algorithm state machines and overlay-owned events", _PAPER + " (all four algorithms)"),
    _m("overlay.connect_attempts", "count", "lower", "Servent.flood calls (discovery floods)", _PAPER),
    _m("overlay.established_per_attempt", "ratio", "higher", "alg.connections_established / connect_attempts", _PAPER),
    _m("overlay.pings_sent", "count", "lower", "alg.pings_sent", _PAPER),
    _m("overlay.open_connections", "count", "higher", "overlay.connections at harvest, summed over scenarios", "none: a change here is a simulated-behaviour change"),
    _m("overlay.msgs_per_member", "1/s", "lower", "the paper's cost axis: connect + ping + query messages received / members / simulated second, pooled (exact for a seed)", "none: a change here is a simulated-behaviour change"),
    # ---- query --------------------------------------------------------
    _m("query.self_s", "s", "lower", "self time of QueryEngine.issue_query/on_query/on_hit and query-owned events", _DENSE),
    _m("query.issued", "count", "higher", "closed queries (RunResult.num_queries), pooled", "none: a change here is a simulated-behaviour change"),
    _m("query.answered_share", "ratio", "higher", "answered / closed queries, pooled (the issue's answer_rate; exact for a seed)", "none: a change here is a simulated-behaviour change"),
    _m("query.forwards_per_query", "ratio", "lower", "QueryEngine.on_query calls / closed queries", _DENSE),
    # ---- metrics ------------------------------------------------------
    _m("metrics.self_s", "s", "lower", "self time of AnalyticsEngine, MetricsCollector.count_received, per_file_stats, lifetime_summary", _METRO),
    _m("metrics.harvest_s", "s", "lower", "inclusive time of runner.harvest", _METRO),
    _m("metrics.incremental_hit_share", "ratio", "higher", "analytics.incremental_hits / (incremental_hits + full_recomputes)", _METRO),
    # ---- obs ----------------------------------------------------------
    _m("obs.self_s", "s", "lower", "self time of Registry.aggregated and RunManifest.begin/finish", _METRO + ", setup_s, peak_rss_mb"),
    _m("obs.series", "count", "lower", "registered series over every simulation's registry", "setup_s and peak_rss_mb on metro_mobility"),
    # ---- scenarios ----------------------------------------------------
    _m("scenarios.self_s", "s", "lower", "self time of build_scenario, harvest glue, RunResult.to_dict/from_dict, JSON dump", "setup_s on metro_mobility"),
    _m("scenarios.build_s", "s", "lower", "inclusive time of build_scenario", "setup_s on metro_mobility"),
    _m("scenarios.serialize_s", "s", "lower", "inclusive time of RunResult.to_dict plus the JSON dump", _METRO),
    # ---- experiments --------------------------------------------------
    _m("experiments.self_s", "s", "lower", "self time of executor, cache, store, figure harvest and export spans", _REPRO),
    _m("experiments.jobs_planned", "count", "lower", "configs requested (reproduce_figs: 64)", "none"),
    _m("experiments.jobs_executed", "count", "lower", "jobs actually run in the cold pass (reproduce_figs: 16)", _REPRO),
    _m("experiments.dedup_ratio", "ratio", "higher", "jobs deduplicated / jobs planned", _REPRO),
    _m("experiments.cache_hit_share", "ratio", "higher", "warm-pass cache hits / lookups (must be 1; 0 off reproduce_figs)", "none: a check"),
    _m("experiments.cache_put_s", "s", "lower", "inclusive time of RunCache.put (archive writes)", _REPRO),
    _m("experiments.cache_get_s", "s", "lower", "inclusive time of RunCache.get over all passes (index load + from_dict)", "experiments.warm_replay_ms"),
    _m("experiments.figure_harvest_s", "s", "lower", "inclusive time of run_figure over all passes", "experiments.warm_replay_ms"),
    _m("experiments.archive_bytes", "B", "lower", "size of the ndjson archive", "experiments.warm_replay_ms"),
    _m("experiments.warm_replay_ms", "ms", "lower", "one warm reproduce_all pass on the cold pass's archive, fresh cache object, incl. figure harvest and export: median of 20 passes in the untraced child (the issue's warm_replay_s; 0 off reproduce_figs)", "none: what a user's re-run costs; no end-to-end bound can carry it (defined on one workload)"),
    _m("experiments.parallel_cold_s", "s", "lower", "the cold pass again with processes=2, untraced (0 when nproc < 2 or not reproduce_figs)", _REPRO),
    _m("experiments.paper_claims_share", "ratio", "higher", "compare_with_paper rows that hold / rows decided over figs 5-12 (0 off reproduce_figs; exact for a seed)", "none: a change here is a simulated-behaviour change"),
    # ---- trace --------------------------------------------------------
    _m("trace.overhead_ratio", "ratio", "lower", "traced run_s / untraced run_s", "none: says how far to trust the rows above"),
    _m("trace.unattributed_share", "ratio", "lower", "share of the traced run wall no root span covers", "none: says how far to trust the rows above"),
    _m("trace.untraced_run_s", "s", "lower", "ready -> results serialised in the untraced child (raw wall; varies with the seed's traffic)", "every run_us_per_tx"),
    _m("trace.spans", "count", "lower", "spans recorded by the traced child", "none"),
]


def _ratio(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def host_slowdown(rep: Dict[str, Any], window: str = "host") -> float:
    """How slow the host was during a rep's timed window (or, with
    ``window="setup"``, its set-up), as ``bench.hostprobe`` read it:
    1 = the nominal host, and so for a child that was not probed."""
    return rep.get(window + "_slowdown") or 1.0


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-rep values of every end-to-end metric (one untraced child each)."""
    return {
        "setup_s": [r["setup_s"] / host_slowdown(r, "setup") for r in reps],
        "run_us_per_tx": [
            _ratio(r["run_s"] / host_slowdown(r) * 1e6, r["counters"].get("net.frames_sent", 0.0))
            for r in reps
        ],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def per_layer(
    traced: Dict[str, Any],
    untraced: Dict[str, Any],
    parallel: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """Every per-layer metric from one traced child, the untraced child
    it is compared with, and (reproduce_figs) the two-process cold pass."""
    c = traced["counters"]
    facts = traced["facts"]
    exp = traced.get("experiments", {})  # reproduce_figs only
    trace = traced["trace"]
    by_name = trace["by_name"]
    by_layer = trace["by_layer"]

    def get(name: str, field: str) -> float:
        return float(by_name.get(name, {}).get(field, 0.0))

    def calls_matching(infix: str) -> float:
        return float(sum(row["calls"] for name, row in by_name.items() if infix in name))

    topo = "topology.TopologyBackend."
    hops_calls = get(topo + "hops_from", "calls")
    unicast_calls = get("radio.Channel.unicast", "calls")
    send_calls = get("routing.Router.send", "calls")
    attempts = get("overlay.Servent.flood", "calls")
    queries = facts["queries"]
    out = {
        "sim.self_s": by_layer["sim"],
        "sim.events": c.get("kernel.events_dispatched", 0.0),
        "sim.heap_pushes": c.get("kernel.heap_pushes", 0.0),
        "sim.events_per_s": _ratio(untraced["facts"]["events"], untraced["run_s"]),
        "sim.cancelled_share": _ratio(
            c.get("kernel.events_skipped", 0.0), c.get("kernel.heap_pushes", 0.0)
        ),
        "sim.peak_pending": trace["peak_pending"],
        "mobility.self_s": by_layer["mobility"],
        "mobility.position_evals": get("mobility.MobilityModel.positions", "calls")
        + get("mobility.MobilityModel.positions_of", "calls"),
        "topology.self_s": by_layer["topology"],
        "topology.refresh_calls": get(topo + "refresh", "calls"),
        "topology.refresh_s": get(topo + "refresh", "self_s"),
        "topology.neighbors_calls": get(topo + "neighbors", "calls"),
        "topology.neighbors_s": get(topo + "neighbors", "self_s"),
        "topology.hops_from_calls": hops_calls,
        "topology.csr_builds": c.get("topology.csr_builds", 0.0),
        "topology.rebuilds": c.get("topology.rebuilds", 0.0),
        "topology.kinetic_skip_share": _ratio(
            c.get("topology.kinetic_skips", 0.0),
            c.get("topology.kinetic_skips", 0.0) + c.get("topology.rebuilds", 0.0),
        ),
        "topology.dist_cache_hit_share": _ratio(
            c.get("topology.dist_cache_hits", 0.0), hops_calls
        ),
        "radio.self_s": by_layer["radio"],
        "radio.broadcast_calls": get("radio.Channel.broadcast", "calls"),
        "radio.unicast_calls": unicast_calls,
        "radio.frames_sent": c.get("net.frames_sent", 0.0),
        "radio.frames_delivered": c.get("net.frames_delivered", 0.0),
        "radio.copies_per_tx": _ratio(
            c.get("net.frames_delivered", 0.0), c.get("net.frames_sent", 0.0)
        ),
        "radio.unicast_fail_share": _ratio(
            get("radio.Channel.unicast", "falsy"), unicast_calls
        ),
        "flood.self_s": by_layer["flood"],
        "flood.originated": c.get("flood.originated", 0.0),
        "flood.forwarded": c.get("flood.forwarded", 0.0),
        "flood.duplicate_share": _ratio(
            c.get("flood.duplicates", 0.0), calls_matching("flood.on_frame[")
        ),
        "flood.suppressed": c.get("flood.suppressed", 0.0),
        "routing.self_s": by_layer["routing"],
        "routing.send_calls": send_calls,
        "routing.rreq_sent": trace["rreq_sent"],
        "routing.delivered_share": _ratio(calls_matching(".deliver["), send_calls),
        "routing.discovery_fail_share": _ratio(trace["route_failures"], send_calls),
        "overlay.self_s": by_layer["overlay"],
        "overlay.connect_attempts": attempts,
        "overlay.established_per_attempt": _ratio(
            c.get("alg.connections_established", 0.0), attempts
        ),
        "overlay.pings_sent": c.get("alg.pings_sent", 0.0),
        "overlay.open_connections": c.get("overlay.connections", 0.0),
        "overlay.msgs_per_member": _ratio(facts["p2p_received"], facts["member_seconds"]),
        "query.self_s": by_layer["query"],
        "query.issued": queries,
        "query.answered_share": _ratio(facts["answered"], queries),
        "query.forwards_per_query": _ratio(
            get("query.QueryEngine.on_query", "calls"), queries
        ),
        "metrics.self_s": by_layer["metrics"],
        "metrics.harvest_s": get("scenarios.harvest", "total_s"),
        "metrics.incremental_hit_share": _ratio(
            c.get("analytics.incremental_hits", 0.0),
            c.get("analytics.incremental_hits", 0.0)
            + c.get("analytics.full_recomputes", 0.0),
        ),
        "obs.self_s": by_layer["obs"],
        "obs.series": trace["series"],
        "scenarios.self_s": by_layer["scenarios"],
        "scenarios.build_s": get("scenarios.build_scenario", "total_s"),
        "scenarios.serialize_s": get("scenarios.RunResult.to_dict", "total_s")
        + get("scenarios.json_dumps", "self_s"),
        "experiments.self_s": by_layer["experiments"],
        "experiments.jobs_planned": exp.get("jobs_planned", 0),
        "experiments.jobs_executed": exp.get("jobs_executed", 0),
        "experiments.dedup_ratio": _ratio(exp.get("jobs_deduped", 0), exp.get("jobs_planned", 0)),
        "experiments.cache_hit_share": _ratio(exp.get("cache_hits", 0), exp.get("cache_lookups", 0)),
        "experiments.cache_put_s": get("experiments.RunCache.put", "total_s"),
        "experiments.cache_get_s": get("experiments.RunCache.get", "total_s"),
        "experiments.figure_harvest_s": get("experiments.run_figure", "total_s"),
        "experiments.archive_bytes": exp.get("archive_bytes", 0),
        "experiments.warm_replay_ms": untraced.get("warm_replay_ms", 0.0),
        "experiments.parallel_cold_s": parallel["run_s"] if parallel else 0.0,
        "experiments.paper_claims_share": _ratio(
            exp.get("claims_hold", 0), exp.get("claims_decided", 0)
        ),
        "trace.overhead_ratio": _ratio(traced["run_s"], untraced["run_s"]),
        "trace.unattributed_share": 1.0
        - _ratio(trace.get("window_root_s", 0.0), traced["run_s"]),
        "trace.untraced_run_s": untraced["run_s"],
        "trace.spans": trace["spans"],
    }
    return {name: float(value) for name, value in out.items()}


def summarise(values: List[float]) -> Dict[str, Any]:
    """median / min / max / n of one metric's per-rep values."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }
