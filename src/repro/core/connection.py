"""Connection (reference) table of a servent.

The paper is explicit that "connections" are *references*: knowledge of
the address of a reachable peer.  A symmetric connection exists when
both endpoints reference each other (the improved algorithms' three-way
handshake); the Basic algorithm keeps asymmetric references.

The table enforces the MAXNCONN cap and tracks, per connection, the
bookkeeping maintenance needs: who pings (the *initiator*), whether the
link is a Random-algorithm long-range ("random") connection, and when
we last heard from the peer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["Connection", "ConnectionTable"]


@dataclass(slots=True)
class Connection:
    """One overlay reference.

    Attributes
    ----------
    peer:
        The referenced node.
    symmetric:
        Whether this was established by the three-way handshake.
    initiator:
        True on the endpoint that sought the connection (it pings);
        False on the acceptor (it pongs and watches a ping deadline).
    random:
        Random-algorithm long-range connection (2x MAXDIST allowance,
        replaced by another random connection when it drops).
    established_at, last_seen:
        Timestamps for diagnostics and maintenance.
    """

    peer: int
    symmetric: bool = True
    initiator: bool = True
    random: bool = False
    established_at: float = 0.0
    last_seen: float = 0.0


class ConnectionTable:
    """Per-servent reference set with a MAXNCONN capacity cap."""

    def __init__(self, owner: int, max_connections: int) -> None:
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        self.owner = owner
        self.max_connections = int(max_connections)
        self._conns: Dict[int, Connection] = {}

    # ------------------------------------------------------------------
    def add(self, conn: Connection) -> bool:
        """Install a connection; False if full or duplicate."""
        if conn.peer == self.owner:
            raise ValueError(f"node {self.owner} cannot connect to itself")
        if conn.peer in self._conns or self.is_full:
            return False
        self._conns[conn.peer] = conn
        return True

    def remove(self, peer: int) -> Optional[Connection]:
        """Drop the connection to ``peer``; returns it if present."""
        return self._conns.pop(peer, None)

    def get(self, peer: int) -> Optional[Connection]:
        return self._conns.get(peer)

    def has(self, peer: int) -> bool:
        return peer in self._conns

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._conns)

    @property
    def is_full(self) -> bool:
        return len(self._conns) >= self.max_connections

    def peers(self) -> List[int]:
        """Connected peer ids (stable insertion order)."""
        return list(self._conns)

    def has_random(self) -> bool:
        return any(c.random for c in self._conns.values())

    def __iter__(self) -> Iterator[Connection]:
        return iter(list(self._conns.values()))

    def __len__(self) -> int:
        return len(self._conns)

    def clear(self) -> List[Connection]:
        """Drop everything (slave reset); returns what was dropped."""
        dropped = list(self._conns.values())
        self._conns.clear()
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ConnectionTable node={self.owner} "
            f"{len(self._conns)}/{self.max_connections} peers={self.peers()}>"
        )
