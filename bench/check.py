"""Output checks: semantic digests and outside-in invariants.

An *operation* is one scenario (or one executor job).  It fails if it
raises, times out, breaks an invariant below, or -- decided by the
parent, which sees every child -- produces a digest different from
another run of the same (workload, seed).

The digest covers what a run *simulated*, never what it cost: the
registry's semantic surface (``repro.obs.compare`` removes scheduler,
topology-cache, suppression and analytics cost counters), the message
totals, the per-file query statistics and the final overlay statistics.
``RunResult.counters`` is ``registry.aggregated(skip_kinds=("timer",))``,
so filtering it with ``is_cost_key`` equals ``semantic_snapshot(registry)``
and lets cached / rehydrated results be digested the same way.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

__all__ = [
    "result_digest",
    "combine_digests",
    "check_result",
    "check_overlay",
    "files_digest",
]


def result_digest(result: Any) -> str:
    """sha256 over the semantic outputs of one ``RunResult``."""
    from repro.obs.compare import is_cost_key

    d = result.to_dict()
    payload = {
        "snapshot": {k: v for k, v in result.counters.items() if not is_cost_key(k)},
        "totals": d["totals"],
        "file_stats": d["file_stats"],
        "overlay_stats": d["overlay_stats"],
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def combine_digests(digests: List[str]) -> str:
    """One digest for a workload: sha256 over its operations' digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def files_digest(contents: Dict[str, bytes]) -> str:
    """sha256 over named artifact bytes (order-independent)."""
    h = hashlib.sha256()
    for name in sorted(contents):
        h.update(name.encode() + b"\0" + contents[name] + b"\0")
    return h.hexdigest()


def check_result(result: Any) -> Optional[str]:
    """Invariants every harvested run must satisfy; None when they hold."""
    if result.events <= 0:
        return f"events = {result.events}"
    answered = sum(s.answered for s in result.file_stats)
    if answered > result.num_queries:
        return f"answered {answered} > issued {result.num_queries}"
    for s in result.file_stats:
        if s.answered > s.queries:
            return f"file {s.file_id}: answered {s.answered} > queries {s.queries}"
    if len(result.energy) and float(result.energy.min()) < 0.0:
        return f"negative energy consumed: {float(result.energy.min())}"
    return None


def check_overlay(simulation: Any) -> Optional[str]:
    """Table-2 connection caps on the live overlay; None when they hold.

    Every member holds at most MAXNCONN references; a Hybrid master
    additionally holds at most MAXNSLAVES slaves (kept in a table of
    their own), i.e. MAXNSLAVES + MAXNCONN in all.
    """
    overlay = simulation.overlay
    p2p = simulation.config.p2p
    for member, count in overlay.connection_counts().items():
        if count > p2p.max_connections:
            return f"member {member}: {count} connections > MAXNCONN {p2p.max_connections}"
        slaves = overlay.servent(member).algorithm.stats().get("slaves", 0)
        if slaves > p2p.max_slaves:
            return f"member {member}: {slaves} slaves > MAXNSLAVES {p2p.max_slaves}"
    return None
