"""Contention MAC: airtime, carrier sensing and receiver-side collisions.

DESIGN.md §4 substitutes the paper's ns-2 802.11 stack with a
collision-free channel and argues the compared effects survive.  This
module lets the repository *measure* that argument instead of asserting
it: :class:`CsmaChannel` is a drop-in Channel replacement where

* every frame occupies airtime (``preamble + size / bitrate``);
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
from .packet import BROADCAST, Frame
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
        #: receiver -> list of (start, end, frame, src) arrivals in flight
        self._arrivals: Dict[int, List[Tuple[float, float, Frame]]] = {}
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
        for other, until in self._tx_until.items():
            if until > now and other != node and self.world.link(node, other):
                return True
        return False

    # ------------------------------------------------------------------
    # public API (mirrors Channel)
    # ------------------------------------------------------------------
    def unicast(self, frame: Frame) -> bool:
        if frame.dst == BROADCAST:
            raise ValueError("use broadcast() for broadcast frames")
        if not self.world.is_up(frame.src):
            return False
        in_range = self.world.link(frame.src, frame.dst) and self.world.is_up(frame.dst)
        self._try_send(frame, attempt=0)
        # Like the base channel, report reachability at send time; the
        # MAC may still destroy the copy (upper layers use timeouts).
        return in_range

    def broadcast(self, frame: Frame) -> int:
        if not self.world.is_up(frame.src):
            return 0
        in_range = len(self.world.up_among(self.world.neighbors(frame.src)))
        self._try_send(frame, attempt=0)
        return in_range

    # ------------------------------------------------------------------
    # MAC machinery
    # ------------------------------------------------------------------
    def _try_send(self, frame: Frame, attempt: int) -> None:
        if not self.world.is_up(frame.src):
            return
        if self._channel_busy(frame.src):
            if attempt >= self.max_retries:
                self._c_drops.inc()
                return
            self._c_backoffs.inc()
            backoff = (1 + int(self._rng.integers(self.max_backoff_slots))) * self.slot
            self.sim.schedule(backoff, self._try_send, frame, attempt + 1)
            return
        self._transmit(frame)

    def _transmit(self, frame: Frame) -> None:
        now = self.sim.now
        duration = self.airtime(frame)
        end = now + duration
        self._tx_until[frame.src] = end
        self._h_airtime.observe(duration)
        self.world.energy.charge_tx(frame.src, frame.size)
        self._c_sent.inc()
        world = self.world
        if frame.dst == BROADCAST:
            receivers = world.up_among(world.neighbors(frame.src)).tolist()
        else:
            receivers = (
                [frame.dst]
                if world.link(frame.src, frame.dst) and world.is_up(frame.dst)
                else []
            )
        # All copies of one transmission complete at the same instant, so
        # the surviving registrations can share ONE completion event
        # (ascending-nid order == the reference's consecutive-seq order).
        registered = np.array(
            [dst for dst in receivers if self._register_arrival(dst, now, end, frame)],
            dtype=np.int64,
        )
        self._schedule_copies(
            end - now, registered, self._complete_arrivals, self._complete_arrival, now, end
        )

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

    def _complete_arrivals(self, dsts: np.ndarray, start: float, end: float) -> None:
        for dst in dsts.tolist():
            self._complete_arrival(dst, start, end)

    def _complete_arrival(self, dst: int, start: float, end: float) -> None:
        queue = self._arrivals.get(dst, [])
        for i, (s, e, frame) in enumerate(queue):
            if s == start and e == end:
                queue.pop(i)
                if frame is not None:
                    self._deliver(dst, frame)
                return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CsmaChannel sent={self._c_sent.value} "
            f"delivered={self._c_delivered.value} "
            f"collisions={self._c_collisions.value} "
            f"backoffs={self._c_backoffs.value}>"
        )
