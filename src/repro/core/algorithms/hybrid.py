"""The Hybrid (re)configuration algorithm (§6.2, Figure 4).

For *heterogeneous* networks: every peer carries a scalar **qualifier**
(battery level, CPU class, ...).  The network self-organizes into
subnets of one *master* and up to ``MAXNSLAVES`` *slaves*; slaves talk
only to their master, masters interconnect with the Regular algorithm,
yielding a hybrid (super-peer) overlay.

States and transitions implemented exactly as described:

* ``INITIAL`` -- flood ``capture(qualifier)`` over an expanding ring.
  A peer that exhausts the ring (``nhops`` wraps to 0) entitles itself
  ``MASTER``.
* Capture handling: an INITIAL peer with a *smaller* qualifier tries
  (three-way handshake: request / accept / confirm) to become the
  sender's slave; a peer with a *bigger* qualifier in INITIAL or MASTER
  answers with its own capture so the smaller sender can enslave itself.
  Qualifier ties are broken by node id so two equal peers never
  deadlock.
* ``MASTER`` -- runs the Regular algorithm against other masters
  (discoveries are flagged ``masters_only``), accepts slave requests up
  to MAXNSLAVES, and reverts to INITIAL after ``MAXTIMERMASTER``
  without a single slave.
* ``SLAVE`` -- maintains only the master connection; if the master is
  lost or drifts beyond MAXDIST, the peer resets to INITIAL.
* ``RESERVED`` -- transitional state during the slave handshake,
  guarded by a timeout.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from ..connection import Connection, ConnectionTable
from ..messages import (
    Capture,
    Discover,
    P2pMessage,
    SlaveAccept,
    SlaveConfirm,
    SlaveRequest,
)
from .regular import RegularAlgorithm

__all__ = ["HybridAlgorithm", "PeerState"]


class PeerState(enum.Enum):
    """Hybrid peer roles (§6.2)."""

    INITIAL = "initial"
    MASTER = "master"
    SLAVE = "slave"
    RESERVED = "reserved"


class HybridAlgorithm(RegularAlgorithm):
    """Master/slave self-organization for heterogeneous networks.

    The qualifier is a static per-node value.  The paper allows it to
    "be related to any characteristic of the node, e.g. energy level";
    :class:`~repro.core.overlay.OverlayNetwork` takes one per node
    (``qualifiers=``) and draws U(0, 1) values when none are given.
    """

    name = "hybrid"

    def __init__(self, servent, config, rng, qualifier: float = 1.0) -> None:
        super().__init__(servent, config, rng)
        #: rank in master elections (ties broken by node id)
        self.qualifier = float(qualifier)
        self.state = PeerState.INITIAL
        self.master: Optional[int] = None
        #: master side: connections to our slaves (acceptor role)
        self.slaves = ConnectionTable(servent.nid, config.max_slaves)
        self._reserved_with: Optional[int] = None
        self._reserved_at = -1.0
        #: pending slave handshakes on the master side: peer -> accept time
        self._pending_slaves: Dict[int, float] = {}
        self._no_slaves_since = 0.0

    def stats(self) -> dict:
        """Base counters plus master/slave structure."""
        out = super().stats()
        out["state"] = self.state.name.lower()
        out["slaves"] = self.slaves.count
        return out

    # ------------------------------------------------------------------
    # qualifier ordering (ties broken by node id, never ambiguous)
    # ------------------------------------------------------------------
    def _beats(self, other_q: float, other_id: int) -> bool:
        """True if this peer outranks (qualifier, id) -- it can be master."""
        return (self.qualifier, self.servent.nid) > (other_q, other_id)

    # ------------------------------------------------------------------
    # establishment (Figure 4)
    # ------------------------------------------------------------------
    def _establish_loop(self):
        cfg = self.cfg
        servent = self.servent
        yield float(self.rng.uniform(0.0, cfg.timer_initial))
        while True:
            if self.state is PeerState.INITIAL:
                if self.nhops != 0:
                    servent.flood(
                        Capture(sender=servent.nid, qualifier=self.qualifier),
                        self.nhops,
                    )
                    self._advance_nhops()
                    yield self.timer
                else:
                    self._become_master()
            elif self.state is PeerState.MASTER:
                # Master with no slaves for too long demotes itself: it
                # "could, potentially, be another peer's slave".
                now = servent.sim.now
                if (
                    self.slaves.count == 0
                    and not self._pending_slaves
                    and now - self._no_slaves_since > cfg.master_timeout
                ):
                    self._become_initial()
                    continue
                # Regular algorithm toward other masters.
                if not servent.connections.is_full:
                    if self.nhops != 0:
                        self._send_discovery()
                        self._advance_nhops()
                        yield self.timer
                    else:
                        self.timer = min(self.timer * 2, cfg.max_timer)
                        self._advance_nhops()
                else:
                    yield cfg.timer_initial
            else:
                # SLAVE / RESERVED: nothing to establish, just idle.
                yield cfg.timer_initial

    def _make_discover(self) -> Discover:
        return Discover(seeker=self.servent.nid, masters_only=True)

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def _become_master(self) -> None:
        self.state = PeerState.MASTER
        self.master = None
        self.nhops = self.cfg.nhops_initial
        self.timer = self.cfg.timer_initial
        self._no_slaves_since = self.servent.sim.now

    def _become_initial(self) -> None:
        # Drop the master-side overlay completely.
        for peer in list(self.servent.connections.peers()):
            self.close_connection(peer)
        # Dropped slaves notice via ping silence and reset themselves.
        self.slaves.clear()
        self._pending_slaves.clear()
        self.state = PeerState.INITIAL
        self.master = None
        self._reserved_with = None
        self.nhops = self.cfg.nhops_initial
        self.timer = self.cfg.timer_initial

    def _reset_to_initial_as_slave(self) -> None:
        """A slave lost its master: start over."""
        self.master = None
        self.state = PeerState.INITIAL
        self.nhops = self.cfg.nhops_initial
        self.timer = self.cfg.timer_initial

    # ------------------------------------------------------------------
    # capture / slave handshake
    # ------------------------------------------------------------------
    def _handle_capture(self, origin: int, qualifier: float) -> None:
        if self.state is PeerState.INITIAL and not self._beats(qualifier, origin):
            # Smaller qualifier: try to become the sender's slave.
            self._request_enslavement(origin)
        elif self.state in (PeerState.INITIAL, PeerState.MASTER) and self._beats(
            qualifier, origin
        ):
            # Bigger qualifier: announce ourselves back to the sender.
            self.servent.send(
                origin, Capture(sender=self.servent.nid, qualifier=self.qualifier)
            )

    def _request_enslavement(self, master_candidate: int) -> None:
        now = self.servent.sim.now
        self.state = PeerState.RESERVED
        self._reserved_with = master_candidate
        self._reserved_at = now
        self.servent.send(
            master_candidate,
            SlaveRequest(sender=self.servent.nid, qualifier=self.qualifier),
        )
        self.servent.sim.schedule(self.cfg.reserve_timeout, self._reserve_timeout, now)

    def _reserve_timeout(self, reserved_at: float) -> None:
        if self.state is PeerState.RESERVED and self._reserved_at == reserved_at:
            self.state = PeerState.INITIAL
            self._reserved_with = None

    def _on_slave_request(self, src: int, msg: SlaveRequest) -> None:
        ok = (
            self.state in (PeerState.INITIAL, PeerState.MASTER)
            and self._beats(msg.qualifier, src)
            and self.slaves.count + len(self._pending_slaves) < self.cfg.max_slaves
            and not self.slaves.has(src)
        )
        if not ok:
            return
        if self.state is PeerState.INITIAL:
            self._become_master()
        now = self.servent.sim.now
        self._pending_slaves[src] = now
        self.servent.send(src, SlaveAccept(sender=self.servent.nid))
        self.servent.sim.schedule(
            self.cfg.handshake_timeout, self._expire_pending_slave, src, now
        )

    def _expire_pending_slave(self, src: int, accepted_at: float) -> None:
        if self._pending_slaves.get(src) == accepted_at:
            self._pending_slaves.pop(src, None)

    def _on_slave_accept(self, src: int, msg: SlaveAccept) -> None:
        if self.state is not PeerState.RESERVED or self._reserved_with != src:
            return
        self.state = PeerState.SLAVE
        self.master = src
        self._reserved_with = None
        # The slave initiates (pings) the master connection.
        conn = Connection(peer=src, symmetric=True, initiator=True)
        conn.established_at = conn.last_seen = self.servent.sim.now
        self.servent.connections.add(conn)
        self.servent.send(src, SlaveConfirm(sender=self.servent.nid))

    def _on_slave_confirm(self, src: int, msg: SlaveConfirm) -> None:
        if src not in self._pending_slaves or self.state is not PeerState.MASTER:
            return
        self._pending_slaves.pop(src, None)
        conn = Connection(peer=src, symmetric=True, initiator=False)
        conn.established_at = conn.last_seen = self.servent.sim.now
        if self.slaves.add(conn):
            self._no_slaves_since = self.servent.sim.now

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def on_discovery(self, origin: int, msg: P2pMessage, hops: int) -> None:
        if isinstance(msg, Capture):
            self._handle_capture(origin, msg.qualifier)
        elif isinstance(msg, Discover) and msg.masters_only:
            if self.state is PeerState.MASTER:
                super().on_discovery(origin, msg, hops)

    def _willing(self, origin: int, msg: Discover) -> bool:
        table = self.servent.connections
        return (
            msg.masters_only
            and self.state is PeerState.MASTER
            and not table.is_full
            and not table.has(origin)
        )

    def on_message(self, src: int, msg: P2pMessage, hops: int) -> None:
        if isinstance(msg, Capture):
            self._handle_capture(src, msg.qualifier)
        elif isinstance(msg, SlaveRequest):
            self._on_slave_request(src, msg)
        elif isinstance(msg, SlaveAccept):
            self._on_slave_accept(src, msg)
        elif isinstance(msg, SlaveConfirm):
            self._on_slave_confirm(src, msg)
        elif self.state is PeerState.MASTER:
            # master-master handshake legs
            super().on_message(src, msg, hops)

    # ------------------------------------------------------------------
    # maintenance: master links (inherited) + slave links
    # ------------------------------------------------------------------
    def _maintenance_round(self, now: float) -> None:
        super()._maintenance_round(now)
        # Master side: drop slaves that went silent.
        for conn in list(self.slaves):
            if now - conn.last_seen > self.cfg.ping_deadline:
                self._close_slave(conn.peer)

    def _close_slave(self, peer: int) -> None:
        if self.slaves.remove(peer) is not None and self.slaves.count == 0:
            self._no_slaves_since = self.servent.sim.now

    def handle_ping(self, src, msg, hops):
        # Pings from slaves land in the slave table.
        conn = self.slaves.get(src)
        if conn is not None:
            conn.last_seen = self.servent.sim.now
            from ..messages import Pong

            self.servent.send(src, Pong(sender=self.servent.nid))
            return
        super().handle_ping(src, msg, hops)

    def on_connection_closed(self, conn: Connection) -> None:
        if self.state is PeerState.SLAVE and conn.peer == self.master:
            self._reset_to_initial_as_slave()

    # ------------------------------------------------------------------
    # query plane
    # ------------------------------------------------------------------
    def overlay_neighbors(self) -> list[int]:
        if self.state is PeerState.SLAVE:
            return [self.master] if self.master is not None else []
        if self.state is PeerState.MASTER:
            return self.servent.connections.peers() + self.slaves.peers()
        return []
