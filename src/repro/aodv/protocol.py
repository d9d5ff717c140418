"""AODV protocol agents and the Router adapter.

Implements the on-demand core of draft-ietf-manet-aodv-11 as used by the
paper's simulations:

* expanding-ring RREQ flooding with per-(origin, rreq_id) dedup — the
  "controlled broadcast" cache the authors added to ns-2 is inherent
  here: a node processes each RREQ id once (:class:`~repro.net.broadcast.SeenTable`,
  which also lets the radio skip the handlers of duplicate copies);
* reverse-route installation at every hop an RREQ crosses;
* RREP generation by the destination (always) and by intermediate nodes
  with a fresh-enough route (configurable), unicast back hop-by-hop;
* data forwarding with route-lifetime refresh;
* link-failure handling on transmission failure: invalidate routes via
  the dead next hop, emit a one-hop RERR so neighbours drop their routes
  through us, and re-discover if we are the data source.

HELLO beacons (draft §6.9) are supported but off by default
(``AodvConfig.hello_interval = 0``): link failure is then detected on
use, which the unit-disk channel reports synchronously.  Remaining
simplifications (documented in DESIGN.md): no precursor lists (RERRs
are one-hop broadcasts) and no gratuitous RREPs.  None of these affect
the message families the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from ..net.broadcast import SeenTable
from ..net.packet import Frame
from ..net.radio import Channel, NetNode
from ..net.suppression import RebroadcastPolicy, make_rebroadcast_policy, parse_policy_spec
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..routing.base import AgentRouter, OnDemandAgent, Router
from .messages import SEQ_UNKNOWN, DataPacket, Hello, Rerr, Rrep, Rreq
from .table import RouteEntry, RouteTable

__all__ = ["AodvConfig", "AodvAgent", "AodvRouter"]

KIND_CTRL = "aodv.ctrl"
KIND_DATA = "aodv.data"
#: obs label of the RREQ dissemination plane (suppression counters)
KIND_RREQ_PLANE = "aodv.rreq"


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
    #: whether intermediate nodes with fresh routes answer RREQs
    intermediate_reply: bool = True
    ctrl_size: int = 48
    rerr_size: int = 20
    #: HELLO beacon period (draft §6.9); 0 disables proactive link
    #: sensing (links then break only when a transmission fails)
    hello_interval: float = 0.0
    #: HELLOs a neighbour may miss before the link is declared broken
    allowed_hello_loss: int = 2
    hello_size: int = 24

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

    @property
    def path_discovery_time(self) -> float:
        """How long an RREQ id is remembered (draft §10:
        ``2 * NET_TRAVERSAL_TIME``; 3.2 s at the defaults, several times
        the longest a copy can still be in flight)."""
        return 2.0 * (2.0 * self.node_traversal_time * self.net_diameter)


class AodvAgent(OnDemandAgent):
    """The AODV state machine of one node."""

    PACKET = DataPacket

    def __init__(
        self, router: AodvRouter, node: NetNode, *, policy: Optional[RebroadcastPolicy] = None
    ) -> None:
        super().__init__(router, node, len(router._ring_ttls))
        #: RREQ rebroadcast policy; None rebroadcasts every first copy
        #: inline (the draft's plain flood)
        self.policy = policy
        self.table = RouteTable(self.nid)
        self.seq = 0
        self.rreq_id = 0
        #: the router's RREQ dedup table and TTL sequence, shared by
        #: all its agents
        self._seen = router._seen
        self._ring_ttls = router._ring_ttls
        c = router.counters
        self._c_rreq, self._c_rrep, self._c_rerr = c["rreq_sent"], c["rrep_sent"], c["rerr_sent"]
        self._c_hello, self._c_forwarded = c["hello_sent"], c["data_forwarded"]
        #: neighbour -> last time a HELLO (or any ctrl frame) was heard
        self._neighbor_heard: Dict[int, float] = {}
        node.register(KIND_CTRL, self._on_ctrl)
        node.register(KIND_DATA, self._on_data)
        if self.cfg.hello_interval > 0:
            from ..sim.process import Process

            self._hello_proc = Process(
                self.sim, self._hello_loop(), name=f"aodv.hello[{self.nid}]"
            )

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
        self.rreq_id += 1
        known = self.table.get(dest)
        rreq = Rreq(
            origin=self.nid,
            origin_seq=self.seq,
            rreq_id=self.rreq_id,
            dest=dest,
            dest_seq=known.dest_seq if known is not None else SEQ_UNKNOWN,
            hop_count=0,
            ttl=ttl,
        )
        self._seen.mark((self.nid, self.rreq_id), self.nid)
        self._c_rreq.value += 1
        self.channel.broadcast(
            Frame(src=self.nid, dst=-1, kind=KIND_CTRL, payload=rreq, size=self.cfg.ctrl_size)
        )
        return self.cfg.discovery_timeout(ttl)

    # ------------------------------------------------------------------
    # HELLO link sensing (draft §6.9; optional)
    # ------------------------------------------------------------------
    def _hello_loop(self):
        interval = self.cfg.hello_interval
        # desynchronize beacons across nodes
        yield (self.nid % 16) / 16.0 * interval
        while True:
            self._c_hello.value += 1
            self.channel.broadcast(
                Frame(
                    src=self.nid,
                    dst=-1,
                    kind=KIND_CTRL,
                    payload=Hello(sender=self.nid),
                    size=self.cfg.hello_size,
                )
            )
            self._check_silent_neighbors()
            yield interval

    def _check_silent_neighbors(self) -> None:
        deadline = self.cfg.hello_interval * (self.cfg.allowed_hello_loss + 0.5)
        now = self.sim.now
        for nbr, heard in list(self._neighbor_heard.items()):
            if now - heard > deadline:
                del self._neighbor_heard[nbr]
                for entry in self.table.invalidate_via(nbr):
                    self._broadcast_rerr(entry.dest, entry.dest_seq)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _on_ctrl(self, frame: Frame) -> None:
        if self.cfg.hello_interval > 0:
            self._neighbor_heard[frame.src] = self.sim.now
        msg = frame.payload
        if isinstance(msg, Rreq):
            self._on_rreq(frame, msg)
        elif isinstance(msg, Rrep):
            self._on_rrep(frame, msg)
        elif isinstance(msg, Rerr):
            self._on_rerr(frame, msg)
        # Hello needs no handling beyond the timestamp above.

    def _on_rreq(self, frame: Frame, rreq: Rreq) -> None:
        key = (rreq.origin, rreq.rreq_id)
        if not self._seen.mark(key, self.nid):
            if self.policy is not None:
                self.policy.duplicate(key)
            return
        now = self.sim.now
        hops_to_origin = rreq.hop_count + 1
        if self.policy is not None:
            self.policy.overhear(rreq.origin, hops_to_origin)
        # Reverse route to the origin via the node we heard this from.
        self.table.offer(
            rreq.origin,
            next_hop=frame.src,
            hop_count=hops_to_origin,
            dest_seq=rreq.origin_seq,
            expires_at=now + self.cfg.active_route_timeout,
            now=now,
        )
        if rreq.dest == self.nid:
            # Destination replies with a freshly incremented sequence
            # number (>= any the requester has seen), so the RREP always
            # displaces stale knowledge of us.
            self.seq = max(self.seq + 1, rreq.dest_seq if rreq.dest_seq != SEQ_UNKNOWN else 0)
            rrep = Rrep(
                origin=rreq.origin,
                dest=self.nid,
                dest_seq=self.seq,
                hop_count=0,
                lifetime=self.cfg.my_route_timeout,
            )
            self._send_rrep(rrep)
            return
        if self.cfg.intermediate_reply:
            entry = self.table.lookup(rreq.dest, now)
            if (
                entry is not None
                and entry.dest_seq != SEQ_UNKNOWN
                and (rreq.dest_seq == SEQ_UNKNOWN or entry.dest_seq >= rreq.dest_seq)
            ):
                rrep = Rrep(
                    origin=rreq.origin,
                    dest=rreq.dest,
                    dest_seq=entry.dest_seq,
                    hop_count=entry.hop_count,
                    lifetime=max(entry.expires_at - now, 0.0),
                )
                self._send_rrep(rrep)
                return
        if rreq.ttl > 1:
            fwd = Rreq(
                origin=rreq.origin,
                origin_seq=rreq.origin_seq,
                rreq_id=rreq.rreq_id,
                dest=rreq.dest,
                dest_seq=rreq.dest_seq,
                hop_count=hops_to_origin,
                ttl=rreq.ttl - 1,
            )
            out = Frame(
                src=self.nid, dst=-1, kind=KIND_CTRL, payload=fwd, size=frame.size
            )
            if self.policy is None:
                self.channel.broadcast(out)
            else:
                self.policy.forward(key, lambda: self.channel.broadcast(out))

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
        RREQ rebroadcast-policy spec (see :mod:`repro.net.suppression`);
        the default ``"flood"`` (no policy) keeps the draft's plain
        expanding-ring flood.
    rng:
        :class:`~repro.sim.rng.RngRegistry` providing the policies'
        private random streams (``suppression.aodv.rreq.<nid>``); a
        seed-0 registry is created when omitted.  Streams are only
        instantiated by policies that actually draw.
    """

    PROTOCOL = "aodv"
    COUNTERS = ("rreq_sent", "rrep_sent", "rerr_sent", "hello_sent", "data_forwarded")

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
        spec = parse_policy_spec(rebroadcast)
        self._rng = rng if rng is not None else RngRegistry(0)
        world = channel.world
        self._seen = SeenTable(sim, self.cfg.path_discovery_time)
        self.registry.gauge("aodv.rreq_keys_live", fn=self._seen.__len__)
        self._ring_ttls = self.cfg.ring_ttls()
        self.agents = [
            AodvAgent(
                self,
                node,
                policy=make_rebroadcast_policy(
                    spec,
                    plane=KIND_RREQ_PLANE,
                    node=node.nid,
                    registry=self.registry,
                    sim=sim,
                    rng_factory=(
                        lambda nid=node.nid: self._rng.stream(
                            f"suppression.{KIND_RREQ_PLANE}.{nid}"
                        )
                    ),
                    degree=(lambda nid=node.nid: len(world.neighbors(nid))),
                ),
            )
            for node in channel.nodes
        ]
        # A duplicate RREQ's handler returns at once only when nothing
        # else reads the copy: no rebroadcast policy anywhere (a policy
        # must see ``policy.duplicate(key)``) and HELLO sensing off
        # (``_on_ctrl`` timestamps every control frame it hears).
        if self.cfg.hello_interval <= 0 and all(a.policy is None for a in self.agents):
            channel.register_noop_hint(KIND_CTRL, self._rreq_noop_hint)

    def _rreq_noop_hint(self, frame: Frame) -> Optional[Set[int]]:
        """Nodes that already processed the RREQ ``frame`` carries (a
        pure read of the dedup table); ``None`` for any other payload."""
        msg = frame.payload
        if isinstance(msg, Rreq):
            return self._seen.seen_by((msg.origin, msg.rreq_id))
        return None

    def route_hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        entry = self.agents[src].table.lookup(dst, self.sim.now)
        return entry.hop_count if entry is not None else Router.UNKNOWN
