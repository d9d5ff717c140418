"""Unit-disk radio channel.

The channel is collision-free (see DESIGN.md §4 for why this
substitution preserves the paper's compared effects): a transmission
reaches exactly the nodes within ``radio_range`` of the sender at the
moment of transmission, after a fixed per-hop ``latency``.

Energy is charged per the world's :class:`~repro.net.energy.EnergyModel`
-- once per transmission for the sender and once per delivered copy for
each receiver (broadcasts charge every listener: radios cannot refuse to
hear).  Depleted or administratively-down nodes neither send nor
receive.

A batched broadcast does that accounting once per *transmission*: one
liveness pass, one vectorized rx charge and one counter bump for all
receivers, then the handlers -- minus the receivers a routing layer's
*no-op hint* vouches for (see :meth:`Channel.register_noop_hint`).
DESIGN.md §5 carries the exactness argument.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, List, Optional

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

    def on_frame(self, frame: Frame) -> None:
        """Dispatch a delivered frame to its registered handler."""
        handler = self._handlers.get(frame.kind)
        if handler is not None:
            handler(frame)

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
        self._noop_hints: Dict[str, Callable[[Frame], Optional[Container[int]]]] = {}

    def register_noop_hint(
        self, kind: str, hint: Callable[[Frame], Optional[Container[int]]]
    ) -> None:
        """Install the no-op hint for frames tagged ``kind`` (one per kind).

        ``hint(frame)`` returns a container of node ids whose registered
        ``kind`` handler is guaranteed to return at once, without side
        effects, if handed ``frame`` now -- or ``None`` when it cannot
        vouch for anyone.  A batched broadcast still charges and counts
        those receivers (radios cannot refuse to hear) but does not call
        their handlers.  The hint must be a pure read.
        """
        if kind in self._noop_hints:
            raise ValueError(f"no-op hint for {kind!r} already set")
        self._noop_hints[kind] = hint

    # ------------------------------------------------------------------
    def unicast(self, frame: Frame) -> bool:
        """Send ``frame`` to its one-hop destination.

        Returns ``True`` if the destination was in range (delivery is
        then scheduled); ``False`` otherwise.  The sender pays the
        transmission cost either way -- the radio does not know in
        advance whether anyone is listening.
        """
        src, dst = frame.src, frame.dst
        if dst == BROADCAST:
            raise ValueError("use broadcast() for broadcast frames")
        if not self.world.is_up(src):
            return False
        self.world.energy.charge_tx(src, frame.size)
        self._c_sent.inc()
        ok = self.world.link(src, dst) and self.world.is_up(dst)
        if ok:
            self.sim.schedule(self.latency, self._deliver, dst, frame)
        self.world.check_depletion()
        return ok

    def broadcast(self, frame: Frame) -> int:
        """Send ``frame`` to every node in range; returns receiver count.

        The receiver set (up neighbors, ascending nid) is frozen at send
        time -- as the topology's own neighbour array while every node
        is up -- and rides ONE kernel event (``weight=len(receivers)``
        keeps ``events_dispatched`` comparable with one event per copy).
        """
        world = self.world
        src = frame.src
        if not world.is_up(src):
            return 0
        world.energy.charge_tx(src, frame.size)
        self._c_sent.inc()
        receivers = world.up_among(world.neighbors(src))
        self._schedule_copies(
            self.latency, receivers, self._deliver_batch, self._deliver, frame
        )
        world.check_depletion()
        return len(receivers)

    def _schedule_copies(
        self,
        delay: float,
        receivers: np.ndarray,
        batch_fn: Callable[..., None],
        copy_fn: Callable[..., None],
        *args,
    ) -> None:
        """Schedule one transmission's copies ``delay`` seconds from now.

        ``receivers`` is the frozen int64 id array, ascending.  Several
        receivers share ONE weight-k event ``batch_fn(receivers, *args)``,
        equal to one ``copy_fn(dst, *args)`` per receiver in the same
        order (DESIGN.md §5); a lone receiver gets ``copy_fn``.
        """
        k = len(receivers)
        if k > 1:
            self.sim.schedule(delay, batch_fn, receivers, *args, weight=k)
        else:
            schedule = self.sim.schedule
            for dst in receivers.tolist():
                schedule(delay, copy_fn, dst, *args)

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
        #  * a hinted receiver's handler would have returned at once.
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
        live = world.up_among(receivers)
        if not len(live):
            return
        energy.charge_rx_many(live, frame.size)
        self._c_delivered.inc(len(live))
        kind = frame.kind
        hint = self._noop_hints.get(kind)
        skip = (hint(frame) if hint is not None else None) or ()
        nodes = self.nodes
        for dst in live.tolist():
            if dst in skip:
                continue
            # The callable passed to NetNode.register, called directly.
            handler = nodes[dst]._handlers.get(kind)
            if handler is not None:
                handler(frame)

    def _deliver(self, dst: int, frame: Frame) -> None:
        # Re-check liveness at delivery time (node may have died in flight).
        if not self.world.is_up(dst):
            return
        self.world.energy.charge_rx(dst, frame.size)
        self._c_delivered.inc()
        if self.on_deliver is not None:
            self.on_deliver(dst, frame)
        self.nodes[dst].on_frame(frame)
        self.world.check_depletion()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Channel n={len(self.nodes)} sent={self._c_sent.value} "
            f"delivered={self._c_delivered.value}>"
        )
