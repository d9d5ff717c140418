"""Controlled multi-hop broadcast (TTL-limited flooding with dedup).

The paper's authors patched ns-2's AODV with "a controlled broadcast
function such that each node has a cache to keep track of the broadcast
messages received.  This mechanism avoids forwarding the same message
several times."  This module is that mechanism: every flooded message
carries a globally unique ``(origin, seq)`` id; each node forwards a
given id at most once, and forwarding stops when the hop budget is
spent.

A :class:`FloodManager` is one flood *plane* -- every node's agent for
one frame kind on one channel: the p2p discovery flood (``p2p.flood``)
and AODV's route requests (``aodv.rreq``) are two planes of this one
class.  Upper layers install per-node callbacks that also report the
hop count the copy travelled -- which is how peers learn their ad-hoc
distance to a discovered neighbour -- and the neighbour it came from,
which is how AODV installs its reverse routes.  The dedup caches of all
its nodes are one :class:`SeenTable`, the same expiring table DSR keeps
for its route requests.
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
    source of truth for a plane's duplicate check (the flood planes and
    DSR's route requests).  A key is
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

    def entry(self, key: FloodId) -> Set[int]:
        """The live set of node ids that processed ``key``, created empty
        (evicting expired keys first) if ``key`` is new; adding ``nid``
        to it is :meth:`mark`."""
        nodes = self._nodes.get(key)
        if nodes is None:
            now = self._sim.now
            born = self._born
            while born and now > born[0][0] + self.lifetime:
                del self._nodes[born.popleft()[1]]
            nodes = self._nodes[key] = set()
            born.append((now, key))
        return nodes

    def mark(self, key: FloodId, nid: int) -> bool:
        """Record that ``nid`` processes ``key``; False if it already has."""
        nodes = self.entry(key)
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
        coexist (e.g. ``"p2p.flood"`` vs ``"aodv.rreq"``).
    registry:
        Observability registry for the plane's counters, labeled
        ``plane=<kind>``.  Defaults to the channel's registry.
    policy:
        The plane's :class:`~repro.net.suppression.RebroadcastPolicy`,
        deciding whether/when each node re-broadcasts a first copy.
        ``None`` forwards every first copy at once.
    lifetime:
        Seconds a flood id stays in the dedup table (default
        :attr:`LIFETIME`).

    Per node ``nid``, ``deliver[nid](origin, payload, hops, via)`` runs
    exactly once per flood id heard (first copy wins, matching the
    dedup table; ``via`` is the neighbour the copy came from) and
    returns True when the node consumed the flood, so it does not relay
    it (an AODV node that answers a route request).
    ``count_duplicate[nid](origin, payload, via)`` runs for each dropped
    duplicate copy (metrics; the radio energy was already charged by the
    channel).  ``None`` entries mark relay-only nodes.
    """

    #: Default seconds a flood id stays in the dedup table.  The slowest
    #: p2p flood (2 x MAXNHOPS = 12 hops x at most ~53 ms per hop: 2 ms
    #: radio latency + 48 ms counter-policy assessment + CSMA backoff)
    #: finishes well inside it.  AODV's plane passes its own, shorter
    #: PATH_DISCOVERY_TIME (``AodvConfig.path_discovery_time()``).
    LIFETIME = 10.0

    def __init__(
        self,
        channel: Channel,
        kind: str,
        *,
        registry: Optional[Registry] = None,
        policy: Optional[RebroadcastPolicy] = None,
        lifetime: float = LIFETIME,
    ) -> None:
        self.channel = channel
        self.kind = kind
        n = len(channel.nodes)
        self.deliver: List[Optional[Callable[[int, Any, int, int], Optional[bool]]]] = [None] * n
        self.count_duplicate: List[Optional[Callable[[int, Any, int], None]]] = [None] * n
        self.policy = policy
        self._seq = [0] * n
        self.seen = SeenTable(channel.sim, lifetime)
        if registry is None:
            registry = getattr(channel, "registry", None)
        self.registry = registry if registry is not None else Registry()
        self._c_originated = self.registry.counter("flood.originated", plane=kind)
        self._c_forwarded = self.registry.counter("flood.forwarded", plane=kind)
        self._c_duplicates = self.registry.counter("flood.duplicates", plane=kind)
        self.registry.gauge("flood.ids_live", fn=self.seen.__len__, plane=kind)
        channel.register_plane(kind, self._on_frame)

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
        self._c_originated.value += 1
        self.seen.entry(fid).add(src)  # the origin never re-forwards its own flood
        msg = FloodMessage(fid=fid, origin=src, hops=0, budget=int(nhops), payload=payload)
        self.channel.broadcast(
            Frame(src=src, dst=-1, kind=self.kind, payload=msg, size=size)
        )
        return fid

    # ------------------------------------------------------------------
    def _transmit(self, frame: Frame) -> None:
        """Count and broadcast one (possibly policy-delayed) forward."""
        self._c_forwarded.value += 1
        self.channel.broadcast(frame)

    def _on_frame(self, receivers: Sequence[int], frame: Frame) -> None:
        """The plane: ``frame`` heard by ``receivers`` (ascending), each
        handled as its own per-copy delivery would be, in that order."""
        msg: FloodMessage = frame.payload
        fid, origin, payload = msg.fid, msg.origin, msg.payload
        via = frame.src
        policy = self.policy
        deliver, count_duplicate = self.deliver, self.count_duplicate
        # Fetched once: receivers are distinct, and the key, at most a
        # second old, cannot expire under a nested origination.
        seen = self.seen.entry(fid)
        hops_here = msg.hops + 1
        remaining = msg.budget - 1
        fwd: Optional[FloodMessage] = None
        first = forwarded = 0
        for nid in receivers:
            if nid in seen:
                if policy is not None:
                    policy.duplicate(nid, fid)
                on_duplicate = count_duplicate[nid]
                if on_duplicate is not None:
                    on_duplicate(origin, payload, via)
                continue
            seen.add(nid)
            first += 1
            on_first = deliver[nid]
            consumed = on_first is not None and on_first(origin, payload, hops_here, via)
            if consumed or remaining <= 0:
                continue
            if fwd is None:  # one forwarded envelope, shared by every forwarder
                fwd = FloodMessage(
                    fid=fid, origin=origin, hops=hops_here, budget=remaining, payload=payload
                )
            out = Frame(src=nid, dst=-1, kind=self.kind, payload=fwd, size=frame.size)
            if policy is None:
                forwarded += 1
                self.channel.broadcast(out)
            else:
                policy.forward(nid, fid, partial(self._transmit, out))
        # counted once per transmission; nothing the loop calls reads them
        self._c_duplicates.value += len(receivers) - first
        self._c_forwarded.value += forwarded
