"""The split of a run's counters into cost keys and semantic keys.

A registry reading is either *semantic* -- what the simulated network
did: frame copies, energy charges, protocol counters, sampled rows --
or *cost* -- how much work the simulator spent to produce it: kernel
queue traffic, topology cache effort, suppression and dedup
bookkeeping, analytics-kernel invocations.  Two runs that differ in
cost keys only did the same thing with a different amount of work.

This module draws that line in one place: the ``*_COST_METRICS``
tuples and two name prefixes list the cost families, :func:`is_cost_key`
classifies one flattened key, :func:`semantic_snapshot` and
:func:`semantic_timeseries` drop the cost keys from a registry snapshot
or from sampler rows, and :func:`snapshot_diff` lists the keys where two
snapshots differ.  ``bench/check.py`` filters each workload's counters
with :func:`is_cost_key` before it digests them; the equivalence tests,
which hold the one run path against its test-side oracles
(``tests/helpers.py``), compare semantic snapshots.

``kernel.events_dispatched`` is deliberately *semantic*: it counts
logical events (each entry's ``weight``), which an oracle must match
exactly, and it stays comparable across archived runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .registry import Registry

__all__ = [
    "SCHEDULER_COST_METRICS",
    "TOPOLOGY_COST_METRICS",
    "SUPPRESSION_COST_METRICS",
    "DEDUP_COST_METRICS",
    "is_scheduler_cost_key",
    "is_cost_key",
    "semantic_snapshot",
    "semantic_timeseries",
    "snapshot_diff",
]

#: Metric names that measure how hard the kernel's queue worked --
#: entries queued and pushed, cancelled entries skipped, compactions --
#: rather than what the simulation did.  A change that dispatches the
#: same events through less queue traffic moves only these.
SCHEDULER_COST_METRICS: Tuple[str, ...] = (
    "kernel.heap",
    "kernel.heap_pushes",
    "kernel.heap_compactions",
    "kernel.events_skipped",
)

#: Metric names that measure topology *cache effort*, not connectivity.
#: A refresh that keeps an unchanged snapshot keeps the BFS distance
#: cache warm and builds fewer CSRs than the full-rebuild reference the
#: tests pin, so these counters differ between the two while every query
#: answer stays bit-identical.  ``delta_rebuilds`` and ``moved_nodes``
#: were counted by the removed delta refresh; runs archived before its
#: removal still carry them.
TOPOLOGY_COST_METRICS: Tuple[str, ...] = (
    "topology.rebuilds",
    "topology.delta_rebuilds",
    "topology.moved_nodes",
    "topology.dist_cache_hits",
    "topology.csr_builds",
)

#: Rebroadcast-suppression policy accounting
#: (:mod:`repro.net.suppression`): how many transmissions a policy
#: skipped or cancelled measures the *policy's* work, not the paper's
#: semantics.  Lanes that build no policy (``flood``, and
#: ``probabilistic:p`` with ``p >= 1``) register none of these series.
#: ``flood.originated`` / ``forwarded`` / ``duplicates`` stay semantic:
#: suppression legitimately changes them and the equivalence suite must
#: notice when it claims not to.  The ``card.*`` names are retired: the
#: contact-table query policy that counted them is gone, and runs
#: archived with it still carry them.
SUPPRESSION_COST_METRICS: Tuple[str, ...] = (
    "flood.suppressed",
    "flood.assessment_cancels",
    "card.contact_hits",
    "card.fallback_floods",
    "card.contacts_learned",
)

#: Dedup-table occupancy: how many flood ids a flood plane (the p2p
#: discovery flood, AODV's route requests) currently remembers is the
#: memory cost of duplicate suppression (bounded by the table's
#: lifetime), not something the simulated network did.
#: ``aodv.rreq_keys_live`` is a retired name: the AODV router's own RREQ
#: table, gone since route requests ride the ``aodv.rreq`` flood plane
#: (``flood.ids_live{plane=aodv.rreq}``); archived runs still carry it.
DEDUP_COST_METRICS: Tuple[str, ...] = ("aodv.rreq_keys_live", "flood.ids_live")

#: Prefix covering the vectorized graph-kernel counters
#: (:mod:`repro.metrics.graphfast`): kernel invocation counts measure
#: which analytics implementation ran, never what the simulation did.
_GRAPHFAST_PREFIX = "graphfast."

#: Prefix of the counters the removed incremental analytics lane
#: reported (cache hits, deltas, full recomputes).  Runs archived before
#: its removal still carry them; they measured which lane ran, never
#: what the simulation did.
_ANALYTICS_PREFIX = "analytics."


def is_scheduler_cost_key(key: str) -> bool:
    """Whether a flattened ``name{labels}`` key is a scheduler-cost metric."""
    name = key.split("{", 1)[0]
    return name in SCHEDULER_COST_METRICS


def is_cost_key(key: str) -> bool:
    """Whether a flattened key measures *cost* (scheduler, topology cache
    effort, suppression/dedup bookkeeping, or analytics-kernel
    invocations) rather than simulation semantics.  The equivalence
    surface excludes exactly these."""
    name = key.split("{", 1)[0]
    return (
        name in SCHEDULER_COST_METRICS
        or name in TOPOLOGY_COST_METRICS
        or name in SUPPRESSION_COST_METRICS
        or name in DEDUP_COST_METRICS
        or name.startswith(_GRAPHFAST_PREFIX)
        or name.startswith(_ANALYTICS_PREFIX)
    )


def semantic_snapshot(registry: Registry) -> Dict[str, float]:
    """Aggregated registry snapshot with cost metrics removed.

    Wall-clock timers are also excluded (they measure the host, not the
    run).  Two runs of the same seeded scenario -- one with a test-side
    oracle, such as the full-rebuild topology, pinned in place of the
    run path -- must produce equal dicts.
    """
    return {
        k: v
        for k, v in registry.aggregated().items()
        if not is_cost_key(k)
    }


def semantic_timeseries(rows: Iterable[Dict[str, float]]) -> List[Dict[str, float]]:
    """Sampler rows with cost columns removed (same contract)."""
    return [{k: v for k, v in row.items() if not is_cost_key(k)} for row in rows]


def snapshot_diff(
    a: Dict[str, float], b: Dict[str, float]
) -> Dict[str, Tuple[object, object]]:
    """``{key: (a_value, b_value)}`` for every key where the dicts differ.

    Missing keys appear with ``None`` on the absent side.  Empty dict
    means the snapshots are bit-identical -- the assertion the
    equivalence tests and the bench harness make.
    """
    out: Dict[str, Tuple[object, object]] = {}
    for k in sorted(set(a) | set(b)):
        va, vb = a.get(k), b.get(k)
        if va != vb:
            out[k] = (va, vb)
    return out
