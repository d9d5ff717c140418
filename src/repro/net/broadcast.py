"""Controlled multi-hop broadcast (TTL-limited flooding with dedup).

The paper's authors patched ns-2's AODV with "a controlled broadcast
function such that each node has a cache to keep track of the broadcast
messages received.  This mechanism avoids forwarding the same message
several times."  This module is that mechanism: every flooded message
carries a globally unique ``(origin, seq)`` id; each node forwards a
given id at most once, and forwarding stops when the hop budget is
spent.

Upper layers (p2p discovery, AODV RREQ) use a :class:`FloodManager`
per node and receive deliveries through a callback that also reports the
hop count the copy travelled -- which is how peers learn their ad-hoc
distance to a discovered neighbour.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..obs.registry import Registry
from .packet import DEFAULT_FRAME_BYTES, Frame
from .radio import Channel, NetNode
from .suppression import RebroadcastPolicy

__all__ = ["FloodMessage", "FloodManager"]

FloodId = Tuple[int, int]


@dataclass(slots=True)
class FloodMessage:
    """Envelope for a flooded payload.

    Attributes
    ----------
    fid:
        Unique flood id ``(origin, seq)``.
    origin:
        Originating node.
    hops:
        Hops travelled by THIS copy (0 when leaving the origin).
    budget:
        Remaining hop budget; a node only re-broadcasts if, after
        incrementing ``hops``, budget remains.
    payload:
        Upper-layer message.
    """

    fid: FloodId
    origin: int
    hops: int
    budget: int
    payload: Any


class FloodManager:
    """Per-node controlled-broadcast agent.

    Parameters
    ----------
    node:
        The owning network node.
    channel:
        The radio channel.
    kind:
        Frame kind to claim; lets several independent flood planes
        coexist (e.g. ``"p2p.flood"`` vs ``"aodv.rreq"``).
    deliver:
        Callback ``deliver(origin, payload, hops)`` invoked exactly once
        per flood id heard (first copy wins, matching the dedup cache).
    count_duplicate:
        Optional callback invoked for each suppressed duplicate copy
        (metrics; the radio energy was already charged by the channel).
    registry:
        Observability registry; counters are labeled
        ``plane=<kind>, node=<nid>``.  Defaults to the channel's
        registry, so a whole simulation's flood planes aggregate in one
        place.
    policy:
        Optional :class:`~repro.net.suppression.RebroadcastPolicy`
        deciding whether/when a first copy is re-broadcast.  ``None``
        (and any policy whose ``reference`` flag is set) keeps the
        historical always-forward fast path, operation for operation.
    """

    #: Bound on the dedup cache: the oldest flood ids are evicted FIFO
    #: once more than this many are remembered.  A flood id only matters
    #: while copies of that flood are still in flight (a handful of hop
    #: latencies), so the cache needs to cover the set of *active*
    #: floods, not the full history of a 3600 s run; 4096 is sized
    #: generously above any burst the paper's workloads produce.
    seen_limit = 4096

    def __init__(
        self,
        node: NetNode,
        channel: Channel,
        kind: str,
        deliver: Optional[Callable[[int, Any, int], None]] = None,
        count_duplicate: Optional[Callable[[int, Any], None]] = None,
        *,
        registry: Optional[Registry] = None,
        policy: Optional[RebroadcastPolicy] = None,
    ) -> None:
        self.node = node
        self.channel = channel
        self.kind = kind
        self.deliver = deliver
        self.count_duplicate = count_duplicate
        self._seq = 0
        self._inserts = 0
        # FIFO dedup cache: insertion-ordered ids, oldest evicted first.
        self._seen: "OrderedDict[FloodId, None]" = OrderedDict()
        #: the configured policy (introspection); ``_policy`` is the hot
        #: path view with reference policies folded to None so the flood
        #: lane pays no indirection.
        self.policy = policy
        self._policy = None if policy is None or policy.reference else policy
        if registry is None:
            registry = getattr(channel, "registry", None)
        self.registry = registry if registry is not None else Registry()
        labels = {"plane": kind, "node": node.nid}
        self._c_evictions = self.registry.counter("flood.evictions", **labels)
        self._c_originated = self.registry.counter("flood.originated", **labels)
        self._c_forwarded = self.registry.counter("flood.forwarded", **labels)
        self._c_duplicates = self.registry.counter("flood.duplicates", **labels)
        # Live cache-pressure views: fill fraction of the dedup cache and
        # the fraction of remembered ids that have been evicted so far.
        self.registry.gauge(
            "flood.cache_occupancy", fn=self._occupancy, **labels
        )
        self.registry.gauge(
            "flood.eviction_rate", fn=self._eviction_rate, **labels
        )
        node.register(kind, self._on_frame)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _occupancy(self) -> float:
        """Dedup-cache fill fraction (0..1 of ``seen_limit``)."""
        return len(self._seen) / self.seen_limit

    def _eviction_rate(self) -> float:
        """Fraction of remembered flood ids evicted before they aged out."""
        if self._inserts == 0:
            return 0.0
        return self._c_evictions.value / self._inserts

    def _remember(self, fid: FloodId) -> None:
        self._inserts += 1
        self._seen[fid] = None
        if len(self._seen) > self.seen_limit:
            self._seen.popitem(last=False)
            self._c_evictions.inc()

    # ------------------------------------------------------------------
    def originate(self, payload: Any, nhops: int, size: int = DEFAULT_FRAME_BYTES) -> FloodId:
        """Flood ``payload`` to every node within ``nhops`` ad-hoc hops.

        Returns the flood id.  ``nhops`` must be >= 1 (a 0-hop flood
        reaches nobody and is rejected to catch caller bugs).
        """
        if nhops < 1:
            raise ValueError(f"nhops must be >= 1, got {nhops}")
        fid = (self.node.nid, self._seq)
        self._seq += 1
        self._c_originated.inc()
        self._remember(fid)  # the origin never re-forwards its own flood
        msg = FloodMessage(fid=fid, origin=self.node.nid, hops=0, budget=int(nhops), payload=payload)
        self.channel.broadcast(
            Frame(src=self.node.nid, dst=-1, kind=self.kind, payload=msg, size=size)
        )
        return fid

    # ------------------------------------------------------------------
    def _transmit(self, frame: Frame) -> None:
        """Count and broadcast one (possibly policy-delayed) forward."""
        self._c_forwarded.inc()
        self.channel.broadcast(frame)

    def _on_frame(self, frame: Frame) -> None:
        msg: FloodMessage = frame.payload
        if msg.fid in self._seen:
            self._c_duplicates.inc()
            if self._policy is not None:
                self._policy.duplicate(msg.fid)
            if self.count_duplicate is not None:
                self.count_duplicate(msg.origin, msg.payload)
            return
        self._remember(msg.fid)
        hops_here = msg.hops + 1
        if self._policy is not None:
            self._policy.overhear(msg.origin, hops_here)
        if self.deliver is not None:
            self.deliver(msg.origin, msg.payload, hops_here)
        remaining = msg.budget - 1
        if remaining > 0:
            fwd = FloodMessage(
                fid=msg.fid,
                origin=msg.origin,
                hops=hops_here,
                budget=remaining,
                payload=msg.payload,
            )
            out = Frame(
                src=self.node.nid, dst=-1, kind=self.kind, payload=fwd, size=frame.size
            )
            if self._policy is None:
                self._transmit(out)
            else:
                self._policy.forward(msg.fid, lambda: self._transmit(out))

    # ------------------------------------------------------------------
    def reset_cache(self) -> None:
        """Forget seen flood ids (tests / very long runs)."""
        self._seen.clear()

    @property
    def cache_size(self) -> int:
        """Number of flood ids remembered by the dedup cache."""
        return len(self._seen)
