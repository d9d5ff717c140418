"""Gnutella-like query engine (§7.2 of the paper).

A node sends a query for a file to all of its overlay neighbours.  Each
receiver processes and forwards it under three traffic-control rules:

1. a node forwards / responds to a given query only once,
2. a query is never forwarded back to the neighbour it came from,
3. a query is never forwarded to its original source.

A holder of the requested file sends a :class:`QueryHit` *directly* to
the requirer (unicast over the ad-hoc network).  Queries carry a TTL in
p2p hops (Table 2: 6).  After issuing a query the requirer collects
answers for ``response_wait`` seconds (30 s), then waits a uniform
15-45 s before the next query.

The engine is written against the narrow servent surface (neighbours /
send / store) so it can be unit-tested over a fake overlay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..sim.process import Process
from .messages import FileData, FileRequest, Query, QueryHit

__all__ = ["QueryConfig", "QueryRecord", "QueryEngine"]

#: a random stream, or a zero-argument callable that creates it
StreamSource = Union[np.random.Generator, Callable[[], np.random.Generator]]

@dataclass(frozen=True)
class QueryConfig:
    """Query-plane parameters (defaults from Table 2 / §7.2)."""

    ttl: int = 6
    response_wait: float = 30.0
    gap_min: float = 15.0
    gap_max: float = 45.0
    #: how requirers pick the file to search: "uniform" over all files
    #: or "zipf" (popular files searched proportionally more often)
    target: str = "uniform"
    #: delay before a node issues its first query (lets the overlay form)
    warmup: float = 60.0
    #: when True, an answered query is followed by a direct download
    #: from the nearest holder, and the file replicates onto the
    #: requirer (Gnutella's transfer phase; changes file availability
    #: over time)
    download: bool = False

    def __post_init__(self) -> None:
        if self.ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {self.ttl}")
        if self.target not in ("uniform", "zipf"):
            raise ValueError(f"unknown target policy {self.target!r}")
        if self.gap_min > self.gap_max:
            raise ValueError("gap_min must be <= gap_max")


@dataclass(slots=True)
class QueryRecord:
    """Outcome of one issued query (one point of Figures 5/6 data)."""

    requirer: int
    file_id: int
    qid: int
    issued_at: float
    #: (holder, p2p_hops, adhoc_hops) per answer
    answers: List[Tuple[int, int, int]] = field(default_factory=list)
    closed: bool = False

    @property
    def answered(self) -> bool:
        return bool(self.answers)

    @property
    def min_p2p_hops(self) -> Optional[int]:
        return min(a[1] for a in self.answers) if self.answers else None

    @property
    def min_adhoc_hops(self) -> Optional[int]:
        hops = [a[2] for a in self.answers if a[2] >= 0]
        return min(hops) if hops else None


class QueryEngine:
    """Per-servent query issue/forward/answer logic.

    ``rng`` is the query stream or a zero-argument callable returning it,
    called at the first draw: a run without queries never creates it.
    """

    def __init__(self, servent, config: QueryConfig, rng: StreamSource) -> None:
        self.servent = servent
        self.cfg = config
        self._rng = rng
        self._seen: Set[int] = set()
        self._open: Dict[int, QueryRecord] = {}
        #: finished QueryRecords (harvested by the metrics layer)
        self.records: List[QueryRecord] = []
        self._proc: Optional[Process] = None
        #: files successfully downloaded (transfer plane)
        self.downloads: List[int] = []
        #: transfers served to other peers
        self.uploads: List[int] = []
        if config.target == "zipf":
            # popularity-proportional search (weight 1/rank), built once
            self._ranks = np.arange(1, servent.num_files + 1, dtype=float)
            w = 1.0 / self._ranks
            self._p = w / w.sum()

    @property
    def rng(self) -> np.random.Generator:
        """The query stream (created here at the first draw, given a callable)."""
        if callable(self._rng):
            self._rng = self._rng()
        return self._rng

    # ------------------------------------------------------------------
    # issuing
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic query loop (idempotent)."""
        if self._proc is None:
            self._proc = Process(
                self.servent.sim, self._loop(), name=f"query[{self.servent.nid}]"
            )

    def _loop(self):
        # Spread first queries out so requirers don't synchronize.
        yield float(self.rng.uniform(0.5, 1.0)) * self.cfg.warmup
        while True:
            issued = self.issue_query()
            if issued is not None:
                yield self.cfg.response_wait
                self._close(issued)
            yield float(self.rng.uniform(self.cfg.gap_min, self.cfg.gap_max))

    def _pick_file(self) -> int:
        if self.cfg.target == "uniform":
            return int(self.rng.integers(1, self.servent.num_files + 1))
        return int(self.rng.choice(self._ranks, p=self._p))

    def issue_query(self, file_id: Optional[int] = None) -> Optional[QueryRecord]:
        """Send one query to all overlay neighbours; None if no neighbours."""
        neighbors = self.servent.overlay_neighbors()
        if not neighbors:
            return None
        fid = file_id if file_id is not None else self._pick_file()
        q = Query(requirer=self.servent.nid, file_id=fid, ttl=self.cfg.ttl, p2p_hops=0)
        record = QueryRecord(
            requirer=self.servent.nid,
            file_id=fid,
            qid=q.qid,
            issued_at=self.servent.sim.now,
        )
        self._open[q.qid] = record
        self._seen.add(q.qid)  # never answer/forward our own query
        for peer in neighbors:
            self.servent.send(peer, q)
        return record

    def _close(self, record: QueryRecord) -> None:
        record.closed = True
        self._open.pop(record.qid, None)
        self.records.append(record)
        if self.cfg.download and record.answers and not self.servent.store.has(
            record.file_id
        ):
            # Download from the closest holder (ties: lowest id).
            holder = min(record.answers, key=lambda a: (a[1], a[0]))[0]
            self.servent.send(
                holder,
                FileRequest(
                    requirer=self.servent.nid, file_id=record.file_id, qid=record.qid
                ),
            )

    # ------------------------------------------------------------------
    # transfer plane (optional; Gnutella's direct file exchange)
    # ------------------------------------------------------------------
    def on_file_request(self, src: int, req: FileRequest) -> None:
        """Serve a download if we still hold the file."""
        if self.servent.store.has(req.file_id):
            self.uploads.append(req.file_id)
            self.servent.send(
                src,
                FileData(holder=self.servent.nid, file_id=req.file_id, qid=req.qid),
            )

    def on_file_data(self, src: int, data: FileData) -> None:
        """A download completed: the file replicates onto this node."""
        if not self.servent.store.has(data.file_id):
            self.servent.store.add(data.file_id)
            self.downloads.append(data.file_id)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_query(self, src: int, q: Query) -> None:
        """Handle a query copy arriving from overlay neighbour ``src``."""
        if q.qid in self._seen:
            return  # rule 1: process/forward once
        self._seen.add(q.qid)
        arrived = Query(q.requirer, q.file_id, q.ttl, q.p2p_hops + 1, q.qid)
        if self.servent.store.has(q.file_id):
            hit = QueryHit(self.servent.nid, q.file_id, q.qid, arrived.p2p_hops)
            self.servent.send(q.requirer, hit)
        # Forward even when we hold the file (§7.2).
        if arrived.ttl > 1:
            fwd = Query(q.requirer, q.file_id, arrived.ttl - 1, arrived.p2p_hops, q.qid)
            for peer in self.servent.overlay_neighbors():
                if peer != src and peer != q.requirer:  # rules 2 and 3
                    self.servent.send(peer, fwd)

    def on_hit(self, src: int, hit: QueryHit) -> None:
        """Record an answer to one of our open queries."""
        record = self._open.get(hit.qid)
        if record is None:
            return  # late answer after the 30 s window: discarded
        adhoc = self.servent.adhoc_distance(hit.holder)
        record.answers.append((hit.holder, hit.p2p_hops, adhoc))
