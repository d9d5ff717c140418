"""Contention MAC: airtime, carrier sensing and receiver-side collisions.

DESIGN.md §4 substitutes the paper's ns-2 802.11 stack with a
collision-free channel and argues the compared effects survive.  This
module lets the repository *measure* that argument instead of asserting
it: :class:`CsmaChannel` is a drop-in Channel replacement where

* every frame occupies airtime (``preamble + size / bitrate``);
* a node sends one frame at a time: a frame it sends while its previous
  one is still on air waits for that one to end, like an interface
  queue, spending no backoff and no retry;
* transmitters carrier-sense: if any neighbour is mid-transmission, the
  frame is deferred by a random backoff (up to ``max_backoff_slots``
  slots) and retried, up to ``max_retries`` times, then dropped;
* receivers experience collisions: two transmissions overlapping in
  time at a receiver destroy each other's copy at that receiver
  (capture-less model).

The `abl_mac` bench runs the paper's workload on both channels and
checks the figure orderings survive contention.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sim.kernel import Simulator
from .packet import Frame
from .radio import Channel
from .world import World

__all__ = ["CsmaChannel"]


class CsmaChannel(Channel):
    """Channel with airtime, carrier sensing, backoff and collisions.

    Parameters
    ----------
    bitrate:
        Link speed in bits/s (default 1 Mb/s, early-802.11 ballpark).
    preamble:
        Fixed per-frame overhead in seconds.
    slot:
        Backoff slot length in seconds.
    max_backoff_slots / max_retries:
        Contention window and retry budget before dropping.
    seed:
        Backoff randomness (deterministic).

    MAC counters (``net.collisions``, ``net.backoffs``,
    ``net.drops_contention``, ``net.airtime_seconds`` histogram) carry
    ``layer="csma"``.
    """

    LAYER = "csma"

    def __init__(
        self,
        sim: Simulator,
        world: World,
        *,
        bitrate: float = 1e6,
        preamble: float = 192e-6,
        slot: float = 20e-6,
        max_backoff_slots: int = 31,
        max_retries: int = 4,
        seed: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(sim, world, **kwargs)
        if bitrate <= 0:
            raise ValueError(f"bitrate must be positive, got {bitrate}")
        self.bitrate = float(bitrate)
        self.preamble = float(preamble)
        self.slot = float(slot)
        self.max_backoff_slots = int(max_backoff_slots)
        self.max_retries = int(max_retries)
        self._rng = np.random.default_rng(seed)
        #: node -> end time of its current transmission (air busy)
        self._tx_until: Dict[int, float] = {}
        #: receiver -> list of (start, end, frame) arrivals in flight; a
        #: collided arrival keeps its slot with frame None
        self._arrivals: Dict[int, List[Tuple[float, float, Optional[Frame]]]] = {}
        self._c_collisions = self.registry.counter("net.collisions", layer=self.LAYER)
        self._c_backoffs = self.registry.counter("net.backoffs", layer=self.LAYER)
        self._c_drops = self.registry.counter("net.drops_contention", layer=self.LAYER)
        self._h_airtime = self.registry.histogram("net.airtime_seconds", layer=self.LAYER)

    # ------------------------------------------------------------------
    def airtime(self, frame: Frame) -> float:
        """Seconds the frame occupies the channel."""
        return self.preamble + (frame.size * 8.0) / self.bitrate

    def _channel_busy(self, node: int) -> bool:
        """Carrier sense: any in-range transmitter currently on air?"""
        now = self.sim.now
        tx_until = self._tx_until
        for other in self.world.topology.neighbors(node).tolist():
            if tx_until.get(other, now) > now:
                return True
        return False

    # ------------------------------------------------------------------
    # the transmission sequence's hooks
    # ------------------------------------------------------------------
    def _send(self, frame: Frame) -> int:
        # Defer the shared sequence behind carrier sense.  Like the base
        # channel, report reachability at call time; the MAC may still
        # defer, drop or destroy the copies (upper layers use timeouts).
        if not self.world.is_up(frame.src):
            return 0
        in_range = len(self._receivers(frame))
        self._try_send(frame, attempt=0)
        return in_range

    def _try_send(self, frame: Frame, attempt: int) -> None:
        src = frame.src
        if not self.world.is_up(src):
            return
        own_until = self._tx_until.get(src, 0.0)
        if own_until > self.sim.now:
            # Our previous frame is still on air: queue behind it.
            self.sim.schedule_at(own_until, self._try_send, frame, attempt)
            return
        if self._channel_busy(src):
            if attempt >= self.max_retries:
                self._c_drops.inc()
                return
            self._c_backoffs.inc()
            backoff = (1 + int(self._rng.integers(self.max_backoff_slots))) * self.slot
            self.sim.schedule(backoff, self._try_send, frame, attempt + 1)
            return
        super()._send(frame)

    def _launch(self, frame: Frame, receivers: List[int]) -> None:
        now = self.sim.now
        duration = self.airtime(frame)
        end = now + duration
        self._tx_until[frame.src] = end
        self._h_airtime.observe(duration)
        # All copies of one transmission complete at the same instant, so
        # the surviving registrations share ONE completion event
        # (ascending-nid order == the reference's consecutive-seq order).
        registered = [dst for dst in receivers if self._register_arrival(dst, now, end, frame)]
        self._schedule_copies(end - now, registered, self._complete_arrivals, frame, now, end)

    def _register_arrival(self, dst: int, start: float, end: float, frame: Frame) -> bool:
        """Record an in-flight copy; returns False if it collided."""
        queue = self._arrivals.setdefault(dst, [])
        # Receiver-side collision: overlap with any in-flight arrival
        # destroys both copies (no capture).
        for i, (s, e, other) in enumerate(queue):
            if s < end and start < e and e > self.sim.now:
                queue[i] = (s, e, None)  # poison the other copy
                self._c_collisions.inc()
                return False  # this copy dies too (not registered)
        queue.append((start, end, frame))
        return True

    def _complete_arrivals(
        self, dsts: List[int], frame: Frame, start: float, end: float
    ) -> None:
        """End the ``[start, end]`` arrivals at ``dsts``; deliver the
        copies no later transmission collided with."""
        survivors = []
        for dst in dsts:
            queue = self._arrivals[dst]
            for i, (s, e, arrived) in enumerate(queue):
                if s == start and e == end:
                    queue.pop(i)
                    if arrived is not None:
                        survivors.append(dst)
                    break
        self._deliver(survivors, frame)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CsmaChannel sent={self._c_sent.value} "
            f"delivered={self._c_delivered.value} "
            f"collisions={self._c_collisions.value} "
            f"backoffs={self._c_backoffs.value}>"
        )
