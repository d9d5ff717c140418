"""(Re)configuration algorithm base class + shared maintenance machinery.

All four algorithms share the ping/pong connection-maintenance scheme of
§6.1.3 (with the Basic algorithm as the degenerate both-sides-ping
case), so it lives here:

* the *initiator* of a connection sends a :class:`Ping` every
  ``ping_interval`` and closes the connection if no :class:`Pong`
  arrives within ``pong_timeout`` or the peer is farther than the
  allowed distance (MAXDIST; doubled for random connections);
* the *acceptor* answers pongs and closes the connection when no ping
  has arrived for ``ping_deadline`` seconds;
* in the Basic algorithm every reference is maintained initiator-style
  by its owner (which is exactly why its ping traffic is ~2x).

Distance is measured from the hop count the pong actually travelled
(reported by the routing layer on delivery), which is how a real
deployment would estimate it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

import numpy as np

from ...sim.process import Process
from ..config import P2pConfig
from ..connection import Connection
from ..messages import P2pMessage, Ping, Pong

if TYPE_CHECKING:  # pragma: no cover
    from ..servent import Servent

__all__ = ["ReconfigAlgorithm"]


class ReconfigAlgorithm(abc.ABC):
    """Base of Basic / Regular / Random / Hybrid.

    Subclasses implement the *establishment* side (discovery floods and
    handshakes); maintenance is shared.

    Parameters
    ----------
    servent:
        The owning servent (provides send/flood/table access).
    config:
        Shared constants.
    rng:
        This node's private random stream.
    """

    #: subclass tag used in configs and reports
    name: str = "abstract"

    def __init__(self, servent: "Servent", config: P2pConfig, rng: np.random.Generator) -> None:
        self.servent = servent
        self.cfg = config
        self.rng = rng
        # initiator-side: peers whose ping is awaiting a pong, with the
        # time the ping went out
        self._await_pong: dict[int, float] = {}
        registry = servent.registry
        self._c_pings = registry.counter("alg.pings_sent", alg=self.name)
        self._c_established = registry.counter("alg.connections_established", alg=self.name)
        self._c_closed = registry.counter("alg.connections_closed", alg=self.name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the algorithm's processes (establishment + maintenance)."""
        self._spawn(self._establish_loop(), "establish")
        self._spawn(self._maintenance_loop(), "maintain")

    def _spawn(self, gen, tag: str) -> None:
        Process(self.servent.sim, gen, name=f"{self.name}.{tag}[{self.servent.nid}]")

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _establish_loop(self):
        """Generator implementing the paper's establishment pseudo-code."""

    @abc.abstractmethod
    def on_discovery(self, origin: int, msg: P2pMessage, hops: int) -> None:
        """A flooded discovery/capture message reached this node."""

    @abc.abstractmethod
    def on_message(self, src: int, msg: P2pMessage, hops: int) -> None:
        """A unicast overlay-management message arrived."""

    def on_connection_closed(self, conn: Connection) -> None:
        """Hook: a connection was just removed (subclasses may react)."""

    def overlay_neighbors(self) -> list[int]:
        """Peers the query plane may talk to (Hybrid overrides)."""
        return self.servent.connections.peers()

    # ------------------------------------------------------------------
    # shared maintenance
    # ------------------------------------------------------------------
    def _maintenance_loop(self):
        cfg = self.cfg
        # Desynchronize ping rounds across nodes.
        yield float(self.rng.uniform(0.0, cfg.ping_interval))
        while True:
            self._maintenance_round(self.servent.sim.now)
            yield cfg.ping_interval

    def _maintenance_round(self, now: float) -> None:
        """One pass over all connections (Hybrid extends with slaves)."""
        for conn in list(self.servent.connections):
            if conn.initiator or not conn.symmetric:
                self._ping_round(conn, now)
            else:
                # acceptor: close silently-dead connections
                if now - conn.last_seen > self.cfg.ping_deadline:
                    self.close_connection(conn.peer)

    def _ping_round(self, conn: Connection, now: float) -> None:
        # pong_timeout <= ping_interval, so the last round's deadline has
        # already run: it closed the connection or found the pong.
        peer = conn.peer
        self._await_pong[peer] = now
        self._c_pings.value += 1
        self.servent.send(peer, Ping(sender=self.servent.nid))
        self.servent.sim.schedule(self.cfg.pong_timeout, self._pong_deadline, peer, now)

    def _pong_deadline(self, peer: int, pinged_at: float) -> None:
        if self._await_pong.get(peer) == pinged_at:
            self._await_pong.pop(peer, None)
            self.close_connection(peer)

    def allowed_distance(self, conn: Connection) -> int:
        """Maintenance distance bound: MAXDIST, doubled for random links."""
        return self.cfg.max_dist * (2 if conn.random else 1)

    def handle_ping(self, src: int, msg: Ping, hops: int) -> None:
        """Acceptor side: answer with a pong, refresh the deadline."""
        conn = self.servent.connections.get(src)
        if conn is None:
            return  # ping for a reference we no longer hold
        conn.last_seen = self.servent.sim.now
        self.servent.send(src, Pong(sender=self.servent.nid))

    def handle_pong(self, src: int, msg: Pong, hops: int) -> None:
        """Initiator side: connection alive; enforce the distance bound."""
        conn = self.servent.connections.get(src)
        self._await_pong.pop(src, None)
        if conn is None:
            return
        conn.last_seen = self.servent.sim.now
        if hops > self.allowed_distance(conn):
            self.close_connection(src)

    # ------------------------------------------------------------------
    def close_connection(self, peer: int) -> None:
        """Remove the reference to ``peer`` and fire the subclass hook."""
        conn = self.servent.connections.remove(peer)
        self._await_pong.pop(peer, None)
        if conn is not None:
            self._c_closed.value += 1
            if self.servent.lifetime_log is not None:
                self.servent.lifetime_log.record(
                    self.servent.nid, conn, self.servent.sim.now
                )
            self.on_connection_closed(conn)

    def add_connection(self, conn: Connection) -> bool:
        """Install a connection (stamped with the current time)."""
        conn.established_at = self.servent.sim.now
        conn.last_seen = conn.established_at
        added = self.servent.connections.add(conn)
        if added:
            self._c_established.value += 1
        return added

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-member snapshot of this algorithm's state and counters.

        ``bench/check.py`` reads it (Hybrid's ``slaves``); everything
        else reads the registry.
        """
        return {
            "connections": self.servent.connections.count,
            "pings_sent": self._c_pings.value,
            "connections_established": self._c_established.value,
            "connections_closed": self._c_closed.value,
            "awaiting_pong": len(self._await_pong),
        }
