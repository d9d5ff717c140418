"""Router abstraction separating the p2p overlay from routing details.

The paper runs its overlay on AODV; we additionally provide an *oracle*
router (instantaneous shortest-path delivery with zero control traffic)
as the fast, idealized limit for large parameter sweeps.  Both expose
the same narrow interface so the p2p layer never knows which one it is
on.

Semantics shared by all routers:

* ``send`` is asynchronous: the payload arrives at ``dst`` after some
  routing-dependent delay, or ``on_fail(payload)`` fires (no route /
  route discovery failed).  In-flight loss after a successful send is
  allowed (mobility may break a path mid-flight) -- upper layers use
  timeouts, exactly like the paper's ping/pong machinery.
* ``register`` installs, per upper-layer ``kind``, a single delivery
  handler ``handler(dst, src, payload, hops)`` shared by all nodes
  (the p2p layer dispatches to the right servent by ``dst``).
* ``route_hops(src, dst)`` reports the router's *current best knowledge*
  of the hop distance, or :data:`Router.UNKNOWN`.  The overlay uses this
  for the MAXDIST maintenance checks.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from ..sim.kernel import Simulator

__all__ = ["Router", "DeliveryHandler", "RreqSeenTable"]

DeliveryHandler = Callable[[int, int, Any, int], None]


class Router(abc.ABC):
    """Abstract multi-hop unicast service."""

    #: Returned by :meth:`route_hops` when no distance estimate exists.
    UNKNOWN = -1

    def __init__(self) -> None:
        self._handlers: Dict[str, DeliveryHandler] = {}

    # ------------------------------------------------------------------
    def register(self, kind: str, handler: DeliveryHandler) -> None:
        """Install the delivery handler for upper-layer ``kind``."""
        if kind in self._handlers:
            raise ValueError(f"handler for kind {kind!r} already registered")
        self._handlers[kind] = handler

    def _deliver_up(self, kind: str, dst: int, src: int, payload: Any, hops: int) -> None:
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(dst, src, payload, hops)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        *,
        kind: str = "data",
        size: int = 64,
        on_fail: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Route ``payload`` from ``src`` to ``dst`` (asynchronously)."""

    @abc.abstractmethod
    def route_hops(self, src: int, dst: int) -> int:
        """Best-known hop distance from ``src`` to ``dst`` or UNKNOWN."""


RreqKey = Tuple[int, int]


class RreqSeenTable:
    """Route-request dedup state of all agents of one router.

    ``(origin, rreq_id) -> ids of the nodes that processed it``: the
    single source of truth for an on-demand router's duplicate check
    (AODV and DSR), and -- read-only, via :meth:`seen_by` -- what AODV's
    no-op hint hands the radio.  A key is forgotten once it is older
    than ``lifetime`` seconds, lazily and in FIFO order when a new key
    arrives, so memory tracks the discoveries in flight, not the run.
    """

    __slots__ = ("_sim", "lifetime", "_nodes", "_born")

    def __init__(self, sim: Simulator, lifetime: float) -> None:
        self._sim = sim
        self.lifetime = float(lifetime)
        self._nodes: Dict[RreqKey, Set[int]] = {}
        #: (first seen, key) in arrival order
        self._born: Deque[Tuple[float, RreqKey]] = deque()

    def __len__(self) -> int:
        return len(self._nodes)

    def seen_by(self, key: RreqKey) -> Optional[Set[int]]:
        """The live set of node ids that processed ``key`` (do not
        mutate), or ``None`` for an unknown key."""
        return self._nodes.get(key)

    def mark(self, key: RreqKey, nid: int) -> bool:
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
