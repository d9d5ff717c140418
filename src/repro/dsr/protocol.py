"""DSR -- Dynamic Source Routing (Johnson & Maltz).

The second on-demand protocol of the paper's companion comparison
(reference [13]): route discovery floods a request that *accumulates the
route it travelled*; the target returns the full path; data packets then
carry their entire source route, so intermediate nodes keep no routing
state (only an opportunistic route cache).

Implemented subset:

* RREQ flooding with per-(origin, id) dedup (one router-wide
  :class:`~repro.net.broadcast.SeenTable`, which forgets a request
  once its discovery can no longer be pending) and hop limit, route
  record accumulation, and loop suppression (a node never forwards a
  request already listing it).  Each forwarder appends itself to the
  route record, so DSR cannot share one forwarded envelope the way the
  :class:`~repro.net.broadcast.FloodManager` planes (the p2p flood,
  AODV's route requests) do;
* RREP carrying the complete route, returned along its reverse
  (bidirectional links, as everywhere in this reproduction);
* per-node route cache (shortest known path per destination), fed by
  both RREPs and overheard route records;
* source-routed data with RERR on a broken hop: the detecting node
  reports the dead link to the origin along the reversed prefix, every
  node on the way (and the origin) purges cached routes using that link,
  and the origin re-discovers;
* cache replies: an intermediate node holding a cached route to the
  target answers the RREQ by splicing it onto the accumulated record;
* packet salvaging (spec §3.4.1): a relay whose next hop failed
  re-routes the packet over an alternate cached route (bounded by
  ``max_salvages``) instead of dropping it.

Omitted (documented): promiscuous overhearing beyond route records and
flow state -- refinements that reduce constants but don't change
reachability semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..net.broadcast import SeenTable
from ..net.packet import Frame
from ..net.radio import Channel, NetNode
from ..routing.base import AgentRouter, OnDemandAgent, Router
from ..sim.kernel import Simulator

__all__ = ["DsrConfig", "DsrAgent", "DsrRouter"]

KIND_CTRL = "dsr.ctrl"
KIND_DATA = "dsr.data"


@dataclass(frozen=True)
class DsrConfig:
    """DSR constants."""

    max_route_len: int = 20
    rreq_ttl: int = 20
    rreq_retries: int = 2
    discovery_timeout: float = 2.0
    queue_per_dest: int = 16
    #: max times a relay may re-route (salvage) one packet whose next
    #: hop failed over an alternate cached route (loop/staleness guard)
    max_salvages: int = 2
    ctrl_size: int = 48


@dataclass(slots=True)
class DsrRreq:
    origin: int
    rreq_id: int
    target: int
    route: List[int]  # accumulated, starts [origin]
    ttl: int


@dataclass(slots=True)
class DsrRrep:
    """Full route origin -> ... -> target, travelling back to origin."""

    origin: int
    target: int
    route: List[int]


@dataclass(slots=True)
class DsrRerr:
    """Link (from_node -> to_node) observed dead; travels to origin."""

    origin: int
    from_node: int
    to_node: int
    #: reversed prefix along which the error travels back
    back_route: List[int]


@dataclass(slots=True)
class DsrData:
    src: int
    dst: int
    kind_upper: str
    payload: Any
    size: int
    route: List[int] = field(default_factory=list)  # full path incl. endpoints
    index: int = 0  # position of the current holder in route
    salvaged: int = 0  # times re-routed mid-path


class RouteCache:
    """Per-node cache of known source routes (shortest per destination)."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._routes: Dict[int, List[int]] = {}

    def get(self, dest: int) -> Optional[List[int]]:
        route = self._routes.get(dest)
        return list(route) if route is not None else None

    def offer(self, route: List[int]) -> None:
        """Learn a route starting at the owner; also all its prefixes."""
        if not route or route[0] != self.owner:
            return
        for end in range(1, len(route)):
            dest = route[end]
            sub = route[: end + 1]
            cur = self._routes.get(dest)
            if cur is None or len(sub) < len(cur):
                self._routes[dest] = list(sub)

    def purge_link(self, a: int, b: int) -> None:
        """Drop every cached route using the (a, b) hop in either order."""
        dead = []
        for dest, route in self._routes.items():
            for u, v in zip(route, route[1:]):
                if (u, v) == (a, b) or (u, v) == (b, a):
                    dead.append(dest)
                    break
        for dest in dead:
            del self._routes[dest]

    def __len__(self) -> int:
        return len(self._routes)


class DsrAgent(OnDemandAgent):
    """The DSR state machine of one node."""

    PACKET = DsrData

    def __init__(self, router: DsrRouter, node: NetNode) -> None:
        super().__init__(router, node, router.cfg.rreq_retries + 1)
        self.cache = RouteCache(self.nid)
        self.rreq_id = 0
        #: the router's RREQ dedup table, shared by all its agents
        self._seen = router._seen
        c = router.counters
        self._c_rreq, self._c_rrep, self._c_rerr = c["rreq_sent"], c["rrep_sent"], c["rerr_sent"]
        self._c_forwarded, self._c_salvaged = c["data_forwarded"], c["salvaged"]
        node.register(KIND_CTRL, self._on_ctrl)
        node.register(KIND_DATA, self._on_data)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _route(self, dest: int) -> Optional[List[int]]:
        return self.cache.get(dest)

    def _send_on(
        self, pkt: DsrData, route: List[int], on_fail: Optional[Callable[[Any], None]]
    ) -> None:
        pkt.route = list(route)
        pkt.index = 0
        self._transmit(pkt, on_fail)

    def _transmit(self, pkt: DsrData, on_fail: Optional[Callable[[Any], None]] = None) -> None:
        next_hop = pkt.route[pkt.index + 1]
        pkt.index += 1
        ok = self.channel.unicast(
            Frame(src=self.nid, dst=next_hop, kind=KIND_DATA, payload=pkt, size=pkt.size)
        )
        if ok:
            if pkt.src != self.nid:
                self._c_forwarded.value += 1
            return
        pkt.index -= 1
        # Broken hop: purge, notify the origin, requeue if we ARE it.
        self.cache.purge_link(self.nid, next_hop)
        if pkt.src == self.nid:
            pkt.route = []
            pkt.index = 0
            self._enqueue(pkt, on_fail)
            return
        self._send_rerr(pkt, next_hop)
        # Salvaging: a relay with an alternate cached route re-routes the
        # packet instead of dropping it (DSR spec §3.4.1).
        if pkt.salvaged < self.cfg.max_salvages:
            alt = self.cache.get(pkt.dst)
            if alt is not None and len(alt) >= 2 and alt[1] != next_hop:
                pkt.salvaged += 1
                pkt.route = alt
                pkt.index = 0
                self._c_salvaged.value += 1
                self._transmit(pkt)

    def _send_rerr(self, pkt: DsrData, dead_hop: int) -> None:
        back = list(reversed(pkt.route[: pkt.index + 1]))  # us ... origin
        if len(back) < 2:
            return
        self._c_rerr.value += 1
        rerr = DsrRerr(
            origin=pkt.src, from_node=self.nid, to_node=dead_hop, back_route=back
        )
        self.channel.unicast(
            Frame(src=self.nid, dst=back[1], kind=KIND_CTRL, payload=rerr, size=self.cfg.ctrl_size)
        )

    def _on_data(self, frame: Frame) -> None:
        pkt: DsrData = frame.payload
        if pkt.dst == self.nid:
            # Learn the reverse route for free (bidirectional links).
            self.cache.offer(list(reversed(pkt.route[: pkt.index + 1])))
            self.deliver_up(pkt.kind_upper, self.nid, pkt.src, pkt.payload, pkt.index)
            return
        if pkt.index + 1 >= len(pkt.route) or pkt.route[pkt.index] != self.nid:
            return  # malformed or stale source route: drop
        self._transmit(pkt)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def _request(self, target: int, attempt: int) -> float:
        self.rreq_id += 1
        self._seen.mark((self.nid, self.rreq_id), self.nid)
        self._c_rreq.value += 1
        rreq = DsrRreq(
            origin=self.nid,
            rreq_id=self.rreq_id,
            target=target,
            route=[self.nid],
            ttl=self.cfg.rreq_ttl,
        )
        self.channel.broadcast(
            Frame(src=self.nid, dst=-1, kind=KIND_CTRL, payload=rreq, size=self.cfg.ctrl_size)
        )
        return self.cfg.discovery_timeout

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _on_ctrl(self, frame: Frame) -> None:
        msg = frame.payload
        if isinstance(msg, DsrRreq):
            self._on_rreq(msg)
        elif isinstance(msg, DsrRrep):
            self._on_rrep(msg)
        elif isinstance(msg, DsrRerr):
            self._on_rerr(msg)

    def _on_rreq(self, rreq: DsrRreq) -> None:
        if self.nid in rreq.route or not self._seen.mark(
            (rreq.origin, rreq.rreq_id), self.nid
        ):
            return
        route_here = rreq.route + [self.nid]
        # Free learning: we now know a route back to the origin.
        self.cache.offer(list(reversed(route_here)))
        if rreq.target == self.nid:
            self._reply(rreq.origin, route_here)
            return
        cached = self.cache.get(rreq.target)
        if cached is not None:
            spliced = route_here + cached[1:]
            # No node may appear twice in the spliced route.
            if len(set(spliced)) == len(spliced) and len(spliced) <= self.cfg.max_route_len:
                self._reply(rreq.origin, spliced)
                return
        if rreq.ttl > 1 and len(route_here) < self.cfg.max_route_len:
            fwd = DsrRreq(
                origin=rreq.origin,
                rreq_id=rreq.rreq_id,
                target=rreq.target,
                route=route_here,
                ttl=rreq.ttl - 1,
            )
            self.channel.broadcast(
                Frame(src=self.nid, dst=-1, kind=KIND_CTRL, payload=fwd, size=self.cfg.ctrl_size)
            )

    def _reply(self, origin: int, full_route: List[int]) -> None:
        """Send an RREP carrying ``full_route`` back toward the origin."""
        rrep = DsrRrep(origin=origin, target=full_route[-1], route=list(full_route))
        self._c_rrep.value += 1
        back = list(reversed(full_route))
        my_pos = back.index(self.nid)
        if my_pos + 1 >= len(back):
            return
        self.channel.unicast(
            Frame(
                src=self.nid,
                dst=back[my_pos + 1],
                kind=KIND_CTRL,
                payload=rrep,
                size=self.cfg.ctrl_size + 2 * len(full_route),
            )
        )

    def _on_rrep(self, rrep: DsrRrep) -> None:
        if rrep.origin == self.nid:
            self.cache.offer(list(rrep.route))
            self._flush(rrep.target)
            return
        back = list(reversed(rrep.route))
        if self.nid not in back:
            return
        my_pos = back.index(self.nid)
        # Opportunistic learning of the suffix toward the target.
        self.cache.offer(rrep.route[rrep.route.index(self.nid):])
        if my_pos + 1 < len(back):
            self.channel.unicast(
                Frame(
                    src=self.nid,
                    dst=back[my_pos + 1],
                    kind=KIND_CTRL,
                    payload=rrep,
                    size=self.cfg.ctrl_size + 2 * len(rrep.route),
                )
            )

    def _on_rerr(self, rerr: DsrRerr) -> None:
        self.cache.purge_link(rerr.from_node, rerr.to_node)
        if rerr.origin == self.nid:
            return
        back = rerr.back_route
        if self.nid in back:
            my_pos = back.index(self.nid)
            if my_pos + 1 < len(back):
                self.channel.unicast(
                    Frame(
                        src=self.nid,
                        dst=back[my_pos + 1],
                        kind=KIND_CTRL,
                        payload=rerr,
                        size=self.cfg.ctrl_size,
                    )
                )


class DsrRouter(AgentRouter):
    """Router facade: one :class:`DsrAgent` per node."""

    PROTOCOL = "dsr"
    COUNTERS = ("rreq_sent", "rrep_sent", "rerr_sent", "data_forwarded", "salvaged")

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        *,
        config: Optional[DsrConfig] = None,
    ) -> None:
        super().__init__(sim, channel, config if config is not None else DsrConfig())
        # Remember a request id for as long as a whole discovery (first
        # try plus every retry) may take, far longer than a copy is in
        # flight.
        self._seen = SeenTable(
            sim, self.cfg.discovery_timeout * (self.cfg.rreq_retries + 1)
        )
        self.agents = [DsrAgent(self, node) for node in channel.nodes]

    def route_hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        route = self.agents[src].cache.get(dst)
        return len(route) - 1 if route is not None else Router.UNKNOWN
