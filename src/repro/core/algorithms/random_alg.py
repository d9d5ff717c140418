"""The Random (re)configuration algorithm (§6.1.4, Figure 3).

Identical to Regular except for the *last* connection slot, which is
filled by a long-range "random connection" to create small-world
bridges:

* the first ``MAXNCONN - 1`` connections are regular (same expanding
  ring, same handshake);
* for the last slot the node draws ``randhops`` uniformly between the
  current ``nhops`` and ``2 * MAXNHOPS``, floods a random-discovery to
  that radius, collects offers for a short window, and completes the
  handshake with the *farthest* responder;
* a random connection that drops must be replaced by another random
  connection;
* maintenance allows random connections twice the distance
  (``2 * MAXDIST``) before closing them.
"""

from __future__ import annotations

from typing import List, Tuple

from ..messages import ConnectOffer, Discover
from .regular import RegularAlgorithm

__all__ = ["RandomAlgorithm"]


class RandomAlgorithm(RegularAlgorithm):
    """Regular plus one far, randomly-discovered small-world link."""

    name = "random"

    def __init__(self, servent, config, rng) -> None:
        super().__init__(servent, config, rng)
        self._collecting = False
        self._random_offers: List[Tuple[int, int]] = []  # (responder, hops_seen)
        #: peer we sent a random-connection accept to (confirm awaited)
        self._pending_random_peer: int | None = None

    # ------------------------------------------------------------------
    # establishment (Figure 3)
    # ------------------------------------------------------------------
    def _regular_count(self) -> int:
        return sum(1 for c in self.servent.connections if not c.random)

    def _target_connections(self) -> int:
        # Regular discoveries only fill MAXNCONN - 1 slots.
        return self.cfg.max_connections - 1

    def _needs_random(self) -> bool:
        # "The difference of the two algorithms lies in the LAST
        # connection": the long-range link is only sought once the
        # MAXNCONN-1 regular slots are filled.  A dropped random
        # connection is replaced on the next loop pass, through this
        # same check.
        table = self.servent.connections
        return (
            self._regular_count() >= self._target_connections()
            and not table.has_random()
            and not table.is_full
            and self._pending_random_peer is None
        )

    def _establish_loop(self):
        cfg = self.cfg
        servent = self.servent
        yield float(self.rng.uniform(0.0, cfg.timer_initial))
        while True:
            if not servent.connections.is_full:
                waited = False
                if self.nhops != 0:
                    if self._regular_count() < self._target_connections():
                        self._send_discovery()
                else:
                    self.timer = min(self.timer * 2, cfg.max_timer)
                if self._needs_random():
                    lo = self.nhops if self.nhops != 0 else cfg.nhops_initial
                    hi = 2 * cfg.max_nhops
                    randhops = int(self.rng.integers(lo, hi + 1))
                    self._collecting = True
                    self._random_offers.clear()
                    servent.flood(
                        Discover(seeker=servent.nid, want_random=True), randhops
                    )
                    yield cfg.random_offer_wait
                    waited = True
                    self._finish_random_collection()
                if self.nhops != 0:
                    yield max(self.timer - (cfg.random_offer_wait if waited else 0.0), 0.0)
                self._advance_nhops()
            else:
                yield cfg.timer_initial

    def _finish_random_collection(self) -> None:
        self._collecting = False
        if not self._needs_random():
            self._random_offers.clear()
            return
        offers = [
            (src, hops)
            for src, hops in self._random_offers
            if not self.servent.connections.has(src) and src not in self._pending
        ]
        self._random_offers.clear()
        if not offers:
            return
        # "only continues the three-way handshake with the most distant
        # neighbour" -- ties broken deterministically by node id.
        best_src, _ = max(offers, key=lambda o: (o[1], o[0]))
        self._pending_random_peer = best_src
        self._accept(best_src, random=True)

    # ------------------------------------------------------------------
    # slot discipline: regular links cap at MAXNCONN - 1 on BOTH sides,
    # so every node keeps one slot free for a random (long-range) link --
    # its own or a distant seeker's.
    # ------------------------------------------------------------------
    def _pending_regular(self) -> int:
        n = len(self._pending)
        if self._pending_random_peer is not None and self._pending_random_peer in self._pending:
            n -= 1
        return n

    def _willing(self, origin: int, msg: Discover) -> bool:
        # Responders treat random discoveries like regular ones: willing
        # if they have capacity.  The *seeker* is the one that insists on
        # the farthest responder.
        table = self.servent.connections
        if msg.basic or msg.masters_only or table.has(origin):
            return False
        if msg.want_random:
            return not table.is_full
        return self._regular_count() < self._target_connections()

    def _accepts_offer(self, src: int, offer: ConnectOffer) -> bool:
        table = self.servent.connections
        return (
            not offer.random
            and self._regular_count() + self._pending_regular() < self._target_connections()
            and not table.has(src)
            and src not in self._pending
        )

    def _on_accept(self, src: int, msg) -> None:
        # Responder side: enforce the regular-slot cap for non-random
        # accepts (the parent only checks total capacity).
        if not msg.random and self._regular_count() >= self._target_connections():
            return
        super()._on_accept(src, msg)

    # ------------------------------------------------------------------
    # offer handling
    # ------------------------------------------------------------------
    def _on_offer(self, src: int, offer: ConnectOffer) -> None:
        if offer.random:
            if self._collecting:
                self._random_offers.append((src, offer.hops_seen))
            return
        super()._on_offer(src, offer)

    def _pending_timeout(self, src: int) -> None:
        super()._pending_timeout(src)
        if src == self._pending_random_peer:
            self._pending_random_peer = None

    def _on_confirm(self, src: int, msg) -> None:
        if src == self._pending_random_peer:
            self._pending_random_peer = None
        super()._on_confirm(src, msg)
