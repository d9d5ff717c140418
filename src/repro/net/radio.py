"""Unit-disk radio channel.

The channel is collision-free (see DESIGN.md §4 for why this
substitution preserves the paper's compared effects): a transmission
reaches exactly the nodes within ``radio_range`` of the sender at the
moment of transmission, after a fixed per-hop ``latency``.

Every channel runs one transmission sequence, :meth:`Channel._send`:
sender liveness, receiver set, tx charge, ``net.frames_sent``, launch.
Subclasses override only its hooks -- the receiver set (lossy), the
deferral in front of it and the launch (CSMA).

Energy is charged per the world's :class:`~repro.net.energy.EnergyModel`
-- once per transmission for the sender and once per delivered copy for
each receiver (broadcasts charge every listener: radios cannot refuse to
hear).  Depleted or administratively-down nodes neither send nor
receive; a charge that drains a node takes it down at that charge.

A batched broadcast does that accounting once per *transmission*: one
liveness pass, one vectorized rx charge and one counter bump for all
receivers, then the handlers -- or, for a kind a protocol claimed as a
*plane* (see :meth:`Channel.register_plane`), one call that takes every
receiver at once.  DESIGN.md §5 carries the exactness argument.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..obs.registry import Registry
from ..sim.kernel import Simulator
from .packet import BROADCAST, Frame
from .world import World

__all__ = ["Channel", "NetNode"]

#: Per-hop propagation + processing latency in seconds.  Small relative
#: to every protocol timer in the paper, but non-zero so event ordering
#: reflects hop counts.
DEFAULT_LATENCY = 0.002


class NetNode:
    """A node's network interface: frame dispatch by ``kind``.

    Protocol layers (AODV, flooding, the p2p overlay) register handlers
    for the frame kinds they own.
    """

    __slots__ = ("nid", "channel", "_handlers")

    def __init__(self, nid: int, channel: "Channel") -> None:
        self.nid = nid
        self.channel = channel
        self._handlers: Dict[str, Callable[[Frame], None]] = {}

    def register(self, kind: str, handler: Callable[[Frame], None]) -> None:
        """Install ``handler`` for frames tagged ``kind`` (one per kind)."""
        if kind in self._handlers:
            raise ValueError(f"node {self.nid}: handler for {kind!r} already set")
        self._handlers[kind] = handler

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NetNode {self.nid} kinds={sorted(self._handlers)}>"


class Channel:
    """Delivers frames between in-range nodes with latency and energy cost.

    Parameters
    ----------
    sim, world:
        Kernel and physical world.
    latency:
        Per-hop delivery latency in seconds.
    on_deliver:
        Optional observer called as ``on_deliver(node_id, frame)`` for
        every delivered frame (:func:`~repro.sim.trace.attach_tracer`
        installs one).
    registry:
        Observability registry for the channel counters; a private one
        is created when not supplied.
    """

    #: layer label the channel's metrics carry
    LAYER = "radio"

    def __init__(
        self,
        sim: Simulator,
        world: World,
        *,
        latency: float = DEFAULT_LATENCY,
        on_deliver: Optional[Callable[[int, Frame], None]] = None,
        registry: Optional[Registry] = None,
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.world = world
        self.latency = float(latency)
        self.on_deliver = on_deliver
        self.nodes: List[NetNode] = [NetNode(i, self) for i in range(world.n)]
        if registry is None:
            registry = getattr(world, "registry", None)
        self.registry = registry if registry is not None else Registry()
        self._c_sent = self.registry.counter("net.frames_sent", layer=self.LAYER)
        self._c_delivered = self.registry.counter("net.frames_delivered", layer=self.LAYER)
        self._planes: Dict[str, Callable[[Sequence[int], Frame], None]] = {}

    def register_plane(
        self, kind: str, fn: Callable[[Sequence[int], Frame], None]
    ) -> None:
        """Claim frames tagged ``kind`` for one plane handler (one per kind).

        ``fn(receivers, frame)`` replaces the per-node handlers: it gets
        the ids that received ``frame``, ascending, once per batched
        transmission (after their rx charge and delivered count), and
        ``[dst]`` for each copy on the per-copy path.  It must handle
        them as consecutive per-copy deliveries would, in that order.
        """
        if kind in self._planes:
            raise ValueError(f"plane for {kind!r} already set")
        self._planes[kind] = fn

    # ------------------------------------------------------------------
    def unicast(self, frame: Frame) -> bool:
        """Send ``frame`` to its one-hop destination.

        Returns ``True`` if the destination was in range (delivery is
        then scheduled); ``False`` otherwise.  The sender pays the
        transmission cost either way -- the radio does not know in
        advance whether anyone is listening.
        """
        if frame.dst == BROADCAST:
            raise ValueError("use broadcast() for broadcast frames")
        return self._send(frame) > 0

    def broadcast(self, frame: Frame) -> int:
        """Send ``frame`` to every node in range; returns receiver count.

        The receiver set (up neighbors, ascending nid) is frozen at send
        time -- as the topology's own neighbour array while every node
        is up -- and rides ONE kernel event (``weight=len(receivers)``
        keeps ``events_dispatched`` comparable with one event per copy).
        """
        return self._send(frame)

    # ------------------------------------------------------------------
    # the transmission sequence; subclasses override its hooks only
    # ------------------------------------------------------------------
    def _send(self, frame: Frame) -> int:
        """Sender liveness, receiver set, tx charge, ``net.frames_sent``,
        launch; returns the receiver count.

        The receiver set is fixed before the charge, so a sender that
        this very frame drains still sends it.
        """
        world = self.world
        src = frame.src
        if src not in world._up_ids:
            return 0
        receivers = self._receivers(frame)
        world.energy.charge_tx(src, frame.size)
        self._c_sent.value += 1
        self._launch(frame, receivers)
        return len(receivers)

    def _receivers(self, frame: Frame):
        """Who hears ``frame`` now: ``(dst,)`` or ``()`` for a unicast,
        the ascending int64 array of up neighbours for a broadcast."""
        world = self.world
        src, dst = frame.src, frame.dst
        if dst == BROADCAST:
            return world.up_among(world.topology.neighbors(src))
        return (dst,) if world.topology.link(src, dst) and dst in world._up_ids else ()

    def _launch(self, frame: Frame, receivers) -> None:
        """Put one transmission's copies in flight."""
        self._schedule_copies(
            self.latency, receivers, self._deliver_batch, self._deliver, frame
        )

    def _schedule_copies(
        self,
        delay: float,
        receivers: np.ndarray,
        batch_fn: Callable[..., None],
        copy_fn: Callable[..., None],
        *args,
    ) -> None:
        """Schedule one transmission's copies ``delay`` seconds from now.

        ``receivers`` is the frozen receiver set, ascending (an int64
        array whenever it can hold several ids).  Several receivers
        share ONE weight-k event ``batch_fn(receivers, *args)``, equal to
        one ``copy_fn(dst, *args)`` per receiver in the same order
        (DESIGN.md §5); a lone receiver gets ``copy_fn``.
        """
        k = len(receivers)
        if k:
            # ``schedule()``'s own time expression, pushed directly
            sim = self.sim
            if k > 1:
                sim.schedule_at(sim.now + delay, batch_fn, receivers, *args, weight=k)
            else:
                sim.schedule_at(sim.now + delay, copy_fn, int(receivers[0]), *args)

    # ------------------------------------------------------------------
    def _deliver_batch(self, receivers: np.ndarray, frame: Frame) -> None:
        # One kernel event, k logical deliveries, radio accounting done
        # once per transmission.  Equal to k ascending `_deliver` calls
        # because (DESIGN.md §5):
        #  * receivers are distinct, and a handler running for receiver
        #    d charges only d synchronously (its own rebroadcast /
        #    unicast; anything it charges another node for happens in a
        #    later event) -- so each node's ledger sees the same float
        #    additions in the same order and stays bit-identical;
        #  * with infinite capacity nothing inside a batch changes the
        #    up-set (only churn events and depletion call `set_down`),
        #    so one liveness pass equals the per-copy re-check;
        #  * a plane walks the receivers in the same ascending order.
        # When the run can observe per-copy order -- a receiver may
        # deplete mid-batch and change the topology for later receivers'
        # rebroadcasts, or an `on_deliver` observer is installed -- each
        # copy takes the per-copy path instead.
        world = self.world
        energy = world.energy
        if energy.finite or self.on_deliver is not None:
            deliver = self._deliver
            for dst in receivers.tolist():
                deliver(dst, frame)
            return
        # Re-check liveness at delivery time (nodes may have died in flight).
        live = world.up_among(receivers).tolist()
        if not live:
            return
        energy.charge_rx_many(live, frame.size)
        self._c_delivered.value += len(live)
        kind = frame.kind
        plane = self._planes.get(kind)
        if plane is not None:
            plane(live, frame)
            return
        nodes = self.nodes
        for dst in live:
            # The callable passed to NetNode.register, called directly.
            handler = nodes[dst]._handlers.get(kind)
            if handler is not None:
                handler(frame)

    def _deliver(self, dst: int, frame: Frame) -> None:
        # Re-check liveness at delivery time (node may have died in flight).
        world = self.world
        if dst not in world._up_ids:
            return
        world.energy.charge_rx(dst, frame.size)
        self._c_delivered.value += 1
        if self.on_deliver is not None:
            self.on_deliver(dst, frame)
        kind = frame.kind
        plane = self._planes.get(kind)
        if plane is not None:
            plane([dst], frame)
            return
        handler = self.nodes[dst]._handlers.get(kind)
        if handler is not None:
            handler(frame)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Channel n={len(self.nodes)} sent={self._c_sent.value} "
            f"delivered={self._c_delivered.value}>"
        )
