"""DSDV -- Destination-Sequenced Distance Vector routing (Perkins &
Bhagwat, 1994).

The *proactive* counterpoint to AODV: every node periodically broadcasts
its full distance vector to its one-hop neighbours, and routes to all
destinations exist (or not) ahead of any demand.  The paper's companion
study (reference [13], Oliveira et al.) compared exactly this family
against AODV under a p2p workload and found on-demand protocols better
in high-mobility scenarios -- the ``abl_routing_protocols`` bench
reproduces that comparison.

Implemented subset:

* full periodic dumps every ``periodic_update`` seconds (jittered);
* destination sequence numbers: even = alive (incremented by the
  destination itself at every dump), odd = broken (incremented by the
  detector of a link failure);
* freshness rule: accept a newer sequence number, or an equal one with
  a strictly better metric;
* broken-link handling on transmission failure: metric = inf, seq + 1,
  immediate triggered update;
* data forwarding along the vector with a fail callback when no route
  is known (a proactive protocol has nothing to wait for).

Omitted (documented): settling-time damping of fluctuating routes and
incremental (delta) dumps -- neither changes who-can-reach-whom, only
control-plane volume constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..net.packet import Frame
from ..net.radio import Channel, NetNode
from ..routing.base import Agent, AgentRouter, Router
from ..sim.kernel import Simulator
from ..sim.process import Process

__all__ = ["DsdvConfig", "DsdvAgent", "DsdvRouter", "INFINITE_METRIC"]

KIND_UPDATE = "dsdv.update"
KIND_DATA = "dsdv.data"

#: metric value representing an unreachable destination
INFINITE_METRIC = 10**6


@dataclass(frozen=True)
class DsdvConfig:
    """DSDV constants."""

    periodic_update: float = 15.0
    #: routes not refreshed for this many periods are dropped
    stale_periods: float = 3.0
    update_size: int = 96
    #: delay before a triggered (broken-link) update goes out
    trigger_delay: float = 0.1


@dataclass(slots=True)
class VectorEntry:
    """One row of the distance vector."""

    dest: int
    next_hop: int
    metric: int
    seq: int
    updated_at: float


@dataclass(slots=True)
class DsdvUpdate:
    """A broadcast distance-vector dump: (dest, metric, seq) triples."""

    sender: int
    rows: List[tuple]  # (dest, metric, seq)


@dataclass(slots=True)
class DsdvData:
    """Upper-layer payload riding the DSDV data plane."""

    src: int
    dst: int
    kind_upper: str
    payload: Any
    size: int
    hops: int = 0


class DsdvAgent(Agent):
    """The DSDV state machine of one node."""

    def __init__(self, router: DsdvRouter, node: NetNode, jitter: float = 0.0) -> None:
        super().__init__(router, node)
        self.seq = 0  # own even sequence number
        self.table: Dict[int, VectorEntry] = {
            self.nid: VectorEntry(self.nid, self.nid, 0, 0, 0.0)
        }
        self._c_updates = router.counters["updates_sent"]
        self._c_forwarded = router.counters["data_forwarded"]
        self._trigger_pending = False
        node.register(KIND_UPDATE, self._on_update)
        node.register(KIND_DATA, self._on_data)
        Process(self.sim, self._update_loop(jitter), name=f"dsdv[{self.nid}]")

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _update_loop(self, jitter: float):
        yield jitter
        while True:
            self._broadcast_vector()
            yield self.cfg.periodic_update

    def _broadcast_vector(self) -> None:
        now = self.sim.now
        self.seq += 2  # fresh even seq for ourselves at every dump
        self.table[self.nid] = VectorEntry(self.nid, self.nid, 0, self.seq, now)
        self._expire_stale(now)
        rows = [(e.dest, e.metric, e.seq) for e in self.table.values()]
        self._c_updates.value += 1
        self.channel.broadcast(
            Frame(
                self.nid,
                -1,
                KIND_UPDATE,
                DsdvUpdate(sender=self.nid, rows=rows),
                self.cfg.update_size + 4 * len(rows),
            )
        )

    def _expire_stale(self, now: float) -> None:
        horizon = self.cfg.periodic_update * self.cfg.stale_periods
        for entry in self.table.values():
            if (
                entry.dest != self.nid
                and entry.metric < INFINITE_METRIC
                and now - entry.updated_at > horizon
            ):
                entry.metric = INFINITE_METRIC
                entry.seq += 1  # odd: we declare it broken

    def _on_update(self, frame: Frame) -> None:
        upd: DsdvUpdate = frame.payload
        now = self.sim.now
        for dest, metric, seq in upd.rows:
            if dest == self.nid:
                continue
            candidate = metric + 1 if metric < INFINITE_METRIC else INFINITE_METRIC
            cur = self.table.get(dest)
            accept = (
                cur is None
                or seq > cur.seq
                or (seq == cur.seq and candidate < cur.metric)
            )
            if accept:
                self.table[dest] = VectorEntry(dest, upd.sender, candidate, seq, now)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def send_data(
        self,
        dst: int,
        payload: Any,
        kind_upper: str,
        size: int,
        on_fail: Optional[Callable[[Any], None]] = None,
    ) -> None:
        pkt = DsdvData(src=self.nid, dst=dst, kind_upper=kind_upper, payload=payload, size=size)
        if not self._forward(pkt) and on_fail is not None:
            on_fail(payload)

    def _route(self, dst: int) -> Optional[VectorEntry]:
        entry = self.table.get(dst)
        if entry is None or entry.metric >= INFINITE_METRIC:
            return None
        return entry

    def _forward(self, pkt: DsdvData) -> bool:
        entry = self._route(pkt.dst)
        if entry is None:
            return False
        pkt.hops += 1
        ok = self.channel.unicast(Frame(self.nid, entry.next_hop, KIND_DATA, pkt, pkt.size))
        if ok:
            if pkt.src != self.nid:
                self._c_forwarded.value += 1
            return True
        pkt.hops -= 1
        self._link_broken(entry.next_hop)
        return False

    def _link_broken(self, neighbor: int) -> None:
        """All routes via the dead neighbour become infinite (odd seq)."""
        changed = False
        for entry in self.table.values():
            if entry.next_hop == neighbor and entry.metric < INFINITE_METRIC:
                entry.metric = INFINITE_METRIC
                entry.seq += 1
                changed = True
        if changed and not self._trigger_pending:
            self._trigger_pending = True
            self.sim.schedule(self.cfg.trigger_delay, self._triggered_update)

    def _triggered_update(self) -> None:
        self._trigger_pending = False
        self._broadcast_vector()

    def _on_data(self, frame: Frame) -> None:
        pkt: DsdvData = frame.payload
        if pkt.dst == self.nid:
            self.deliver_up(pkt.kind_upper, self.nid, pkt.src, pkt.payload, pkt.hops)
            return
        self._forward(pkt)


class DsdvRouter(AgentRouter):
    """Router facade: one :class:`DsdvAgent` per node.

    Updates are jittered across nodes so the periodic dumps don't
    synchronize into network-wide bursts.
    """

    PROTOCOL = "dsdv"
    COUNTERS = ("updates_sent", "data_forwarded")

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        *,
        config: Optional[DsdvConfig] = None,
    ) -> None:
        super().__init__(sim, channel, config if config is not None else DsdvConfig())
        n = len(channel.nodes)
        self.agents = [
            DsdvAgent(self, node, jitter=(i / max(n, 1)) * self.cfg.periodic_update)
            for i, node in enumerate(channel.nodes)
        ]

    def route_hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        entry = self.agents[src]._route(dst)
        return entry.metric if entry is not None else Router.UNKNOWN
