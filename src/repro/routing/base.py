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
* every count a router keeps is a registry counter
  ``routing.<name>{protocol=<PROTOCOL>}``, one instrument shared by all
  nodes.

The protocol routers (AODV, DSR, DSDV) are :class:`AgentRouter`\\ s: one
:class:`Agent` state machine per node behind one facade.  AODV and DSR
share the on-demand core of :class:`OnDemandAgent` -- the per-destination
send buffer and the route-discovery retry loop -- and keep only their
packet formats and control planes.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..obs.registry import Counter, Registry

if TYPE_CHECKING:
    from ..net.radio import Channel, NetNode
    from ..sim.kernel import Simulator

__all__ = ["Router", "DeliveryHandler", "Agent", "AgentRouter", "OnDemandAgent"]

DeliveryHandler = Callable[[int, int, Any, int], None]
OnFail = Optional[Callable[[Any], None]]


class Router(abc.ABC):
    """Abstract multi-hop unicast service."""

    #: Returned by :meth:`route_hops` when no distance estimate exists.
    UNKNOWN = -1
    #: ``protocol`` label of this router's ``routing.*`` counters
    PROTOCOL = ""
    #: the ``<name>`` of every ``routing.<name>`` counter it charges
    COUNTERS: Tuple[str, ...] = ()

    def __init__(self, registry: Registry) -> None:
        self._handlers: Dict[str, DeliveryHandler] = {}
        self.registry = registry
        #: name -> the shared counter every agent charges
        self.counters: Dict[str, Counter] = {
            name: registry.counter(f"routing.{name}", protocol=self.PROTOCOL)
            for name in self.COUNTERS
        }

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

    def control_overhead(self) -> Dict[str, int]:
        """``{name: registry.value("routing.<name>", protocol=...)}`` over
        :attr:`COUNTERS` (a registry read kept for ``bench/``)."""
        return {
            name: int(self.registry.value(f"routing.{name}", protocol=self.PROTOCOL))
            for name in self.COUNTERS
        }

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
        on_fail: OnFail = None,
    ) -> None:
        """Route ``payload`` from ``src`` to ``dst`` (asynchronously)."""

    @abc.abstractmethod
    def route_hops(self, src: int, dst: int) -> int:
        """Best-known hop distance from ``src`` to ``dst`` or UNKNOWN."""


class AgentRouter(Router):
    """Router facade over one protocol :class:`Agent` per node.

    Subclasses build :attr:`agents` (indexed by node id).  A send to
    oneself is delivered up at the current instant without touching the
    protocol; every other send is the source agent's ``send_data``.
    """

    agents: List[Any]

    def __init__(self, sim: Simulator, channel: Channel, config: Any) -> None:
        registry = getattr(channel, "registry", None)
        super().__init__(sim.registry if registry is None else registry)
        self.sim = sim
        self.channel = channel
        self.cfg = config

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        *,
        kind: str = "data",
        size: int = 64,
        on_fail: OnFail = None,
    ) -> None:
        if dst == src:
            self.sim.schedule(0.0, self._deliver_up, kind, dst, src, payload, 0)
            return
        self.agents[src].send_data(dst, payload, kind, size, on_fail)


class Agent:
    """One node's protocol state machine; its substrate and constants
    are the router's."""

    def __init__(self, router: AgentRouter, node: NetNode) -> None:
        self.node = node
        self.nid = node.nid
        self.channel = router.channel
        self.sim = router.sim
        self.cfg = router.cfg
        self.deliver_up = router._deliver_up


class OnDemandAgent(Agent):
    """Send buffer and route-discovery retry loop of an on-demand protocol.

    A packet with no route waits in a per-destination queue of at most
    ``cfg.queue_per_dest`` packets (overflow fails at once) while the
    agent originates up to ``max_attempts`` route requests, each followed
    by a timeout re-check.  A route, found by the re-check or announced
    by the protocol through :meth:`_flush`, sends the whole queue; an
    exhausted search fails it out through every packet's ``on_fail``.

    Subclasses provide the hooks: ``PACKET`` (the data-packet class),
    :meth:`_route`, :meth:`_send_on` and :meth:`_request`.
    """

    PACKET: Any = None

    def __init__(self, router: AgentRouter, node: NetNode, max_attempts: int) -> None:
        super().__init__(router, node)
        self._max_attempts = max_attempts
        # dest -> (queued packets, their on_fail callbacks)
        self._pending: Dict[int, List[Tuple[Any, OnFail]]] = {}
        # dest -> index of the discovery attempt in flight
        self._attempt: Dict[int, int] = {}

    # hooks ---------------------------------------------------------------
    def _route(self, dest: int) -> Any:
        """The usable route to ``dest``, or None."""
        raise NotImplementedError

    def _send_on(self, pkt: Any, route: Any, on_fail: OnFail) -> None:
        """Send our own ``pkt`` along ``route``."""
        raise NotImplementedError

    def _request(self, dest: int, attempt: int) -> float:
        """Originate route request number ``attempt`` for ``dest``;
        return how long to wait for its reply."""
        raise NotImplementedError

    # ---------------------------------------------------------------------
    def send_data(
        self, dst: int, payload: Any, kind_upper: str, size: int, on_fail: OnFail = None
    ) -> None:
        """Send an upper-layer payload to ``dst``, discovering if needed."""
        pkt = self.PACKET(src=self.nid, dst=dst, kind_upper=kind_upper, payload=payload, size=size)
        route = self._route(dst)
        if route is not None:
            self._send_on(pkt, route, on_fail)
        else:
            self._enqueue(pkt, on_fail)

    def _enqueue(self, pkt: Any, on_fail: OnFail) -> None:
        queue = self._pending.setdefault(pkt.dst, [])
        if len(queue) >= self.cfg.queue_per_dest:
            if on_fail is not None:
                on_fail(pkt.payload)
            return
        queue.append((pkt, on_fail))
        if len(queue) == 1 and pkt.dst not in self._attempt:
            self._discover(pkt.dst, 0)

    def _discover(self, dest: int, attempt: int) -> None:
        if attempt >= self._max_attempts:
            self._flush(dest)  # no route: fails every queued packet
            return
        self._attempt[dest] = attempt
        self.sim.schedule(self._request(dest, attempt), self._discovery_check, dest, attempt)

    def _discovery_check(self, dest: int, attempt: int) -> None:
        if dest not in self._pending:
            return  # already resolved (or failed)
        if self._route(dest) is not None:
            self._flush(dest)
        elif self._attempt.get(dest) == attempt:  # else a newer one is in flight
            self._discover(dest, attempt + 1)

    def _flush(self, dest: int) -> None:
        route = self._route(dest)
        queue = self._pending.pop(dest, [])
        self._attempt.pop(dest, None)
        for pkt, on_fail in queue:
            if route is not None:
                self._send_on(pkt, route, on_fail)
            elif on_fail is not None:
                on_fail(pkt.payload)
