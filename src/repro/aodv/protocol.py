"""AODV protocol agents and the Router adapter.

Implements the on-demand core of draft-ietf-manet-aodv-11 as used by the
paper's simulations:

* expanding-ring RREQ flooding with per-flood-id dedup — the
  "controlled broadcast" cache the authors added to ns-2 is the same
  mechanism as the p2p discovery flood's, so RREQs ride a
  :class:`~repro.net.broadcast.FloodManager` plane of their own
  (``aodv.rreq``): a node processes each RREQ once and relays it unless
  it answered it;
* reverse-route installation at every hop an RREQ crosses;
* RREP generation by the destination and by intermediate nodes with a
  fresh-enough route, unicast back hop-by-hop;
* data forwarding with route-lifetime refresh;
* link-failure handling on transmission failure: invalidate routes via
  the dead next hop, emit a one-hop RERR so neighbours drop their routes
  through us, and re-discover if we are the data source.

There are no HELLO beacons (draft §6.9), as in the paper's runs: link
failure is detected on use, which the unit-disk channel reports
synchronously.  Remaining simplifications (documented in DESIGN.md): no
precursor lists (RERRs are one-hop broadcasts) and no gratuitous RREPs.
None of these affect the message families the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..net.broadcast import FloodManager
from ..net.packet import Frame
from ..net.radio import Channel, NetNode
from ..net.suppression import make_rebroadcast_policy
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..routing.base import AgentRouter, OnDemandAgent, Router
from .messages import SEQ_UNKNOWN, DataPacket, Rerr, Rrep, Rreq
from .table import RouteEntry, RouteTable

__all__ = ["AodvConfig", "AodvAgent", "AodvRouter"]

KIND_CTRL = "aodv.ctrl"
KIND_DATA = "aodv.data"
#: frame kind of the RREQ flood plane (and ``plane`` label of its counters)
KIND_RREQ = "aodv.rreq"


@dataclass(frozen=True)
class AodvConfig:
    """AODV constants (defaults follow draft-ietf-manet-aodv-11 §10).

    ``net_diameter`` is sized for the paper's 100 m x 100 m / 10 m-range
    world rather than the draft's 35.
    """

    active_route_timeout: float = 3.0
    my_route_timeout: float = 6.0
    node_traversal_time: float = 0.04
    ttl_start: int = 2
    ttl_increment: int = 2
    ttl_threshold: int = 7
    net_diameter: int = 20
    rreq_retries: int = 2
    #: max data packets buffered per destination awaiting a route
    queue_per_dest: int = 16
    ctrl_size: int = 48
    rerr_size: int = 20

    def ring_ttls(self) -> List[int]:
        """The TTL sequence of the expanding-ring search + retries."""
        ttls = []
        ttl = self.ttl_start
        while ttl < self.ttl_threshold:
            ttls.append(ttl)
            ttl += self.ttl_increment
        if not ttls:
            # ttl_start >= ttl_threshold: still probe one bounded ring
            # at the threshold before escalating to network-wide floods
            # (draft §6.4 expands *up to* TTL_THRESHOLD, then jumps to
            # NET_DIAMETER).
            ttls.append(self.ttl_threshold)
        ttls.append(self.net_diameter)
        ttls.extend([self.net_diameter] * self.rreq_retries)
        return ttls

    def discovery_timeout(self, ttl: int) -> float:
        """RREP wait time for a ring of radius ``ttl`` (2 x traversal)."""
        return 2.0 * self.node_traversal_time * (ttl + 2)

    def path_discovery_time(self) -> float:
        """RFC 3561's PATH_DISCOVERY_TIME: 2 x NET_TRAVERSAL_TIME, where
        NET_TRAVERSAL_TIME = 2 x ``node_traversal_time`` x ``net_diameter``
        (3.2 s at the defaults).  A node buffers a RREQ id this long."""
        return 4.0 * self.node_traversal_time * self.net_diameter


class AodvAgent(OnDemandAgent):
    """The AODV state machine of one node."""

    PACKET = DataPacket

    def __init__(self, router: AodvRouter, node: NetNode) -> None:
        super().__init__(router, node, len(router._ring_ttls))
        self.table = RouteTable(self.nid)
        self.seq = 0
        #: the router's RREQ flood plane and TTL sequence, shared by all
        #: its agents
        self._flood = router.flood
        self._ring_ttls = router._ring_ttls
        c = router.counters
        self._c_rreq, self._c_rrep, self._c_rerr = c["rreq_sent"], c["rrep_sent"], c["rerr_sent"]
        self._c_forwarded = c["data_forwarded"]
        node.register(KIND_DATA, self._on_data)
        self._flood.deliver[self.nid] = self._on_rreq

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _route(self, dest: int) -> Optional[RouteEntry]:
        return self.table.lookup(dest, self.sim.now)

    def _send_on(
        self, pkt: DataPacket, route: RouteEntry, on_fail: Optional[Callable[[Any], None]]
    ) -> None:
        self._forward(pkt, route.next_hop, on_fail)

    def _forward(
        self,
        pkt: DataPacket,
        next_hop: int,
        on_fail: Optional[Callable[[Any], None]] = None,
    ) -> None:
        pkt.hops += 1
        ok = self.channel.unicast(
            Frame(src=self.nid, dst=next_hop, kind=KIND_DATA, payload=pkt, size=pkt.size)
        )
        if ok:
            now = self.sim.now
            self.table.refresh(pkt.dst, now + self.cfg.active_route_timeout)
            if pkt.src != self.nid:
                self._c_forwarded.value += 1
            return
        # Link broke: drop routes through that neighbour and tell ours.
        pkt.hops -= 1
        broken = self.table.invalidate_via(next_hop)
        for entry in broken:
            self._broadcast_rerr(entry.dest, entry.dest_seq)
        if pkt.src == self.nid:
            # We are the source: requeue and rediscover.
            self._enqueue(pkt, on_fail)
        # Intermediate nodes drop the packet (the RERR warns upstream).

    def _on_data(self, frame: Frame) -> None:
        pkt: DataPacket = frame.payload
        if pkt.dst == self.nid:
            self.deliver_up(pkt.kind_upper, self.nid, pkt.src, pkt.payload, pkt.hops)
            return
        entry = self.table.lookup(pkt.dst, self.sim.now)
        if entry is None:
            # No route at a relay: RERR back so sources re-discover.
            cur = self.table.get(pkt.dst)
            self._broadcast_rerr(pkt.dst, cur.dest_seq if cur else SEQ_UNKNOWN)
            return
        self._forward(pkt, entry.next_hop)

    # ------------------------------------------------------------------
    # route discovery
    # ------------------------------------------------------------------
    def _request(self, dest: int, attempt: int) -> float:
        ttl = self._ring_ttls[attempt]
        self.seq += 1
        known = self.table.get(dest)
        rreq = Rreq(
            origin=self.nid,
            origin_seq=self.seq,
            dest=dest,
            dest_seq=known.dest_seq if known is not None else SEQ_UNKNOWN,
        )
        self._c_rreq.value += 1
        self._flood.originate(self.nid, rreq, ttl, self.cfg.ctrl_size)
        return self.cfg.discovery_timeout(ttl)

    def _on_rreq(self, origin: int, rreq: Rreq, hops: int, via: int) -> bool:
        """First copy of ``rreq`` (the ``aodv.rreq`` plane calls in here).

        Install the reverse route to its origin via the neighbour ``via``
        it came from, ``hops`` away, then reply as its destination or as
        an intermediate node with a fresh-enough route.  True if we
        replied: the plane then does not relay it.
        """
        now = self.sim.now
        table = self.table
        table.offer(origin, via, hops, rreq.origin_seq, now + self.cfg.active_route_timeout, now)
        if rreq.dest == self.nid:
            # Destination replies with a freshly incremented sequence
            # number (>= any the requester has seen), so the RREP always
            # displaces stale knowledge of us.
            self.seq = max(self.seq + 1, rreq.dest_seq if rreq.dest_seq != SEQ_UNKNOWN else 0)
            rrep = Rrep(
                origin=origin,
                dest=self.nid,
                dest_seq=self.seq,
                hop_count=0,
                lifetime=self.cfg.my_route_timeout,
            )
            self._send_rrep(rrep)
            return True
        entry = table.lookup(rreq.dest, now)
        if (
            entry is not None
            and entry.dest_seq != SEQ_UNKNOWN
            and (rreq.dest_seq == SEQ_UNKNOWN or entry.dest_seq >= rreq.dest_seq)
        ):
            rrep = Rrep(
                origin=origin,
                dest=rreq.dest,
                dest_seq=entry.dest_seq,
                hop_count=entry.hop_count,
                lifetime=max(entry.expires_at - now, 0.0),
            )
            self._send_rrep(rrep)
            return True
        return False

    # ------------------------------------------------------------------
    # control plane (the router's ``aodv.ctrl`` plane calls in here)
    # ------------------------------------------------------------------
    def _send_rrep(self, rrep: Rrep) -> None:
        """Unicast an RREP one hop toward its origin along reverse route."""
        if rrep.origin == self.nid:
            return  # degenerate: route to self
        entry = self.table.lookup(rrep.origin, self.sim.now)
        if entry is None:
            return  # reverse route evaporated; origin will retry
        self._c_rrep.value += 1
        self.channel.unicast(
            Frame(
                src=self.nid,
                dst=entry.next_hop,
                kind=KIND_CTRL,
                payload=rrep,
                size=self.cfg.ctrl_size,
            )
        )

    def _on_rrep(self, frame: Frame, rrep: Rrep) -> None:
        now = self.sim.now
        hops_to_dest = rrep.hop_count + 1
        # Forward route to the destination via whoever sent us the RREP.
        self.table.offer(
            rrep.dest,
            next_hop=frame.src,
            hop_count=hops_to_dest,
            dest_seq=rrep.dest_seq,
            expires_at=now + rrep.lifetime,
            now=now,
        )
        if rrep.origin == self.nid:
            self._flush(rrep.dest)
            return
        fwd = Rrep(
            origin=rrep.origin,
            dest=rrep.dest,
            dest_seq=rrep.dest_seq,
            hop_count=hops_to_dest,
            lifetime=rrep.lifetime,
        )
        self._send_rrep(fwd)

    def _broadcast_rerr(self, dest: int, dest_seq: int) -> None:
        self._c_rerr.value += 1
        self.channel.broadcast(
            Frame(
                src=self.nid,
                dst=-1,
                kind=KIND_CTRL,
                payload=Rerr(dest=dest, dest_seq=dest_seq),
                size=self.cfg.rerr_size,
            )
        )

    def _on_rerr(self, frame: Frame, rerr: Rerr) -> None:
        entry = self.table.get(rerr.dest)
        if entry is not None and entry.valid and entry.next_hop == frame.src:
            self.table.invalidate(rerr.dest)
            # Propagate so longer paths through us are torn down too.
            self._broadcast_rerr(rerr.dest, max(rerr.dest_seq, entry.dest_seq))


class AodvRouter(AgentRouter):
    """Router facade: one :class:`AodvAgent` per node.

    Parameters
    ----------
    sim, channel:
        Shared substrate.
    config:
        Protocol constants.
    rebroadcast:
        RREQ rebroadcast-policy spec (see :mod:`repro.net.suppression`)
        of the ``aodv.rreq`` flood plane (:attr:`flood`); the default
        ``"flood"`` (no policy) keeps the draft's plain expanding-ring
        flood.
    rng:
        :class:`~repro.sim.rng.RngRegistry` providing the policy's
        per-node random streams (``suppression.aodv.rreq.<nid>``); a
        seed-0 registry is used when omitted.  A stream is only
        instantiated when its node actually draws.
    """

    PROTOCOL = "aodv"
    COUNTERS = ("rreq_sent", "rrep_sent", "rerr_sent", "data_forwarded")

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        *,
        config: Optional[AodvConfig] = None,
        rebroadcast: str = "flood",
        rng: Optional[RngRegistry] = None,
    ) -> None:
        super().__init__(sim, channel, config if config is not None else AodvConfig())
        #: the RREQ flood plane; its ``policy`` None rebroadcasts every
        #: first copy inline (the draft's plain flood), and it keeps each
        #: RREQ id for PATH_DISCOVERY_TIME
        self.flood = FloodManager(
            channel,
            KIND_RREQ,
            registry=self.registry,
            lifetime=self.cfg.path_discovery_time(),
            policy=make_rebroadcast_policy(
                rebroadcast,
                plane=KIND_RREQ,
                registry=self.registry,
                sim=sim,
                rng=rng,
                world=channel.world,
            ),
        )
        self._ring_ttls = self.cfg.ring_ttls()
        self.agents = [AodvAgent(self, node) for node in channel.nodes]
        channel.register_plane(KIND_CTRL, self._on_ctrl)

    # ------------------------------------------------------------------
    # the aodv.ctrl plane
    # ------------------------------------------------------------------
    def _on_ctrl(self, receivers: Sequence[int], frame: Frame) -> None:
        """``frame`` heard by ``receivers`` (ascending), each handled as
        its own per-copy delivery would be, in that order."""
        agents = self.agents
        msg = frame.payload
        if isinstance(msg, Rrep):
            for nid in receivers:
                agents[nid]._on_rrep(frame, msg)
        elif isinstance(msg, Rerr):
            for nid in receivers:
                agents[nid]._on_rerr(frame, msg)

    def route_hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        entry = self.agents[src].table.lookup(dst, self.sim.now)
        return entry.hop_count if entry is not None else Router.UNKNOWN
