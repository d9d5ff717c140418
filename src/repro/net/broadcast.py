"""Controlled multi-hop broadcast (TTL-limited flooding with dedup).

The paper's authors patched ns-2's AODV with "a controlled broadcast
function such that each node has a cache to keep track of the broadcast
messages received.  This mechanism avoids forwarding the same message
several times."  This module is that mechanism: every flooded message
carries a globally unique ``(origin, seq)`` id; each node forwards a
given id at most once, and forwarding stops when the hop budget is
spent.

A :class:`FloodManager` is one flood *plane* -- every node's agent for
one frame kind on one channel (the p2p discovery flood).  Upper layers
install per-node callbacks that also report the hop count the copy
travelled -- which is how peers learn their ad-hoc distance to a
discovered neighbour.  The dedup caches of all its nodes are one
:class:`SeenTable`, the same expiring table AODV and DSR keep for their
route requests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.registry import Registry
from ..sim.kernel import Simulator
from .packet import DEFAULT_FRAME_BYTES, Frame
from .radio import Channel
from .suppression import RebroadcastPolicy

__all__ = ["FloodMessage", "FloodManager", "SeenTable"]

FloodId = Tuple[int, int]


class SeenTable:
    """Duplicate-suppression state of every node of one broadcast plane.

    ``(origin, id) -> ids of the nodes that processed it``: the single
    source of truth for a plane's duplicate check (the p2p discovery
    flood, AODV and DSR route requests), and -- read-only, via
    :meth:`seen_by` -- what AODV's no-op hint hands the radio.  A key is
    forgotten once it is older than ``lifetime`` seconds, lazily and in
    FIFO order when a new key arrives, so memory tracks the floods in
    flight, not the run.
    """

    __slots__ = ("_sim", "lifetime", "_nodes", "_born")

    def __init__(self, sim: Simulator, lifetime: float) -> None:
        self._sim = sim
        self.lifetime = float(lifetime)
        self._nodes: Dict[FloodId, Set[int]] = {}
        #: (first seen, key) in arrival order
        self._born: Deque[Tuple[float, FloodId]] = deque()

    def __len__(self) -> int:
        return len(self._nodes)

    def seen_by(self, key: FloodId) -> Optional[Set[int]]:
        """The live set of node ids that processed ``key`` (do not
        mutate), or ``None`` for an unknown key."""
        return self._nodes.get(key)

    def mark(self, key: FloodId, nid: int) -> bool:
        """Record that ``nid`` processes ``key``; False if it already has."""
        nodes = self._nodes.get(key)
        if nodes is None:
            now = self._sim.now
            born = self._born
            while born and now > born[0][0] + self.lifetime:
                del self._nodes[born.popleft()[1]]
            self._nodes[key] = {nid}
            born.append((now, key))
            return True
        if nid in nodes:
            return False
        nodes.add(nid)
        return True


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
    """One controlled-broadcast plane: every node's flood agent for one
    frame kind on one channel.

    Parameters
    ----------
    channel:
        The radio channel; each of its nodes relays the plane.
    kind:
        Frame kind to claim; lets several independent flood planes
        coexist (e.g. ``"p2p.flood"`` vs ``"bench.flood"``).
    registry:
        Observability registry for the plane's counters, labeled
        ``plane=<kind>``.  Defaults to the channel's registry.
    policies:
        Per-node :class:`~repro.net.suppression.RebroadcastPolicy`,
        indexed by node id, deciding whether/when a first copy is
        re-broadcast.  ``None`` (the list, or a node's entry) forwards
        every first copy at once.

    Per node ``nid``, ``deliver[nid](origin, payload, hops)`` runs
    exactly once per flood id heard (first copy wins, matching the
    dedup table) and ``count_duplicate[nid](origin, payload)`` for each
    dropped duplicate copy (metrics; the radio energy was already
    charged by the channel).  ``None`` entries mark relay-only nodes.
    """

    #: Seconds a flood id stays in the dedup table.  The slowest flood
    #: finishes well inside it: 12 hops (2 x MAXNHOPS) x at most ~53 ms
    #: per hop (2 ms radio latency + 48 ms counter-policy assessment +
    #: CSMA backoff) is ~0.64 s.
    LIFETIME = 10.0

    def __init__(
        self,
        channel: Channel,
        kind: str,
        *,
        registry: Optional[Registry] = None,
        policies: Optional[Sequence[Optional[RebroadcastPolicy]]] = None,
    ) -> None:
        self.channel = channel
        self.kind = kind
        n = len(channel.nodes)
        self.deliver: List[Optional[Callable[[int, Any, int], None]]] = [None] * n
        self.count_duplicate: List[Optional[Callable[[int, Any], None]]] = [None] * n
        self.policies: List[Optional[RebroadcastPolicy]] = (
            list(policies) if policies is not None else [None] * n
        )
        self._seq = [0] * n
        self.seen = SeenTable(channel.sim, self.LIFETIME)
        if registry is None:
            registry = getattr(channel, "registry", None)
        self.registry = registry if registry is not None else Registry()
        self._c_originated = self.registry.counter("flood.originated", plane=kind)
        self._c_forwarded = self.registry.counter("flood.forwarded", plane=kind)
        self._c_duplicates = self.registry.counter("flood.duplicates", plane=kind)
        self.registry.gauge("flood.ids_live", fn=self.seen.__len__, plane=kind)
        for node in channel.nodes:
            node.register(kind, partial(self._on_frame, node.nid))

    # ------------------------------------------------------------------
    def originate(
        self, src: int, payload: Any, nhops: int, size: int = DEFAULT_FRAME_BYTES
    ) -> FloodId:
        """Flood ``payload`` from node ``src`` to every node within
        ``nhops`` ad-hoc hops.

        Returns the flood id.  ``nhops`` must be >= 1 (a 0-hop flood
        reaches nobody and is rejected to catch caller bugs).
        """
        if nhops < 1:
            raise ValueError(f"nhops must be >= 1, got {nhops}")
        fid = (src, self._seq[src])
        self._seq[src] += 1
        self._c_originated.inc()
        self.seen.mark(fid, src)  # the origin never re-forwards its own flood
        msg = FloodMessage(fid=fid, origin=src, hops=0, budget=int(nhops), payload=payload)
        self.channel.broadcast(
            Frame(src=src, dst=-1, kind=self.kind, payload=msg, size=size)
        )
        return fid

    # ------------------------------------------------------------------
    def _transmit(self, frame: Frame) -> None:
        """Count and broadcast one (possibly policy-delayed) forward."""
        self._c_forwarded.inc()
        self.channel.broadcast(frame)

    def _on_frame(self, nid: int, frame: Frame) -> None:
        msg: FloodMessage = frame.payload
        policy = self.policies[nid]
        if not self.seen.mark(msg.fid, nid):
            self._c_duplicates.inc()
            if policy is not None:
                policy.duplicate(msg.fid)
            count_duplicate = self.count_duplicate[nid]
            if count_duplicate is not None:
                count_duplicate(msg.origin, msg.payload)
            return
        hops_here = msg.hops + 1
        if policy is not None:
            policy.overhear(msg.origin, hops_here)
        deliver = self.deliver[nid]
        if deliver is not None:
            deliver(msg.origin, msg.payload, hops_here)
        remaining = msg.budget - 1
        if remaining > 0:
            fwd = FloodMessage(
                fid=msg.fid,
                origin=msg.origin,
                hops=hops_here,
                budget=remaining,
                payload=msg.payload,
            )
            out = Frame(src=nid, dst=-1, kind=self.kind, payload=fwd, size=frame.size)
            if policy is None:
                self._transmit(out)
            else:
                policy.forward(msg.fid, lambda: self._transmit(out))
