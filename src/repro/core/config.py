"""P2P layer parameters (Table 2 of the paper plus timing constants).

Table 2 gives the structural constants (NHOPS_INITIAL, MAXNHOPS,
MAXNCONN, MAXDIST, MAXNSLAVES, query TTL).  The paper does not publish
its timer values; the defaults here are chosen so that several
(re)configuration cycles and ping rounds fit in the simulated hour --
they are plain dataclass fields, so sweeps can vary them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["P2pConfig"]


@dataclass(frozen=True)
class P2pConfig:
    """Constants shared by the four (re)configuration algorithms."""

    # ---- Table 2 -----------------------------------------------------
    #: MAXNCONN: maximum overlay connections per node
    max_connections: int = 3
    #: NHOPS_INITIAL: first discovery radius (ad-hoc hops)
    nhops_initial: int = 2
    #: MAXNHOPS: maximum discovery radius
    max_nhops: int = 6
    #: NHOPS: the Basic algorithm's fixed discovery radius
    nhops_basic: int = 6
    #: MAXDIST: maximum hop distance of a maintained connection
    max_dist: int = 6
    #: MAXNSLAVES: slaves a Hybrid master accepts
    max_slaves: int = 3

    # ---- timers (not published; see module docstring) ------------------
    #: TIMER_INITIAL: gap between connection attempts (doubles up to
    #: MAXTIMER when a full nhops cycle failed; reset on success)
    timer_initial: float = 10.0
    #: MAXTIMER cap for the exponential back-off
    max_timer: float = 160.0
    #: TIMER: the Basic algorithm's fixed retry gap
    timer_basic: float = 10.0
    #: keep-alive period of the connection initiator
    ping_interval: float = 10.0
    #: how long the initiator waits for a pong before closing (at most
    #: ping_interval: each round's ping restarts the wait)
    pong_timeout: float = 5.0
    #: acceptor closes if no ping for ping_interval * this factor
    ping_deadline_factor: float = 2.5
    #: seeker-side handshake timeout (offer accepted, confirm pending)
    handshake_timeout: float = 5.0
    #: how long the Random algorithm collects offers before picking the
    #: farthest responder
    random_offer_wait: float = 3.0
    #: MAXTIMERMASTER: a master with zero slaves for this long resets
    master_timeout: float = 60.0
    #: RESERVED-state slave handshake timeout (Hybrid)
    reserve_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if not (1 <= self.nhops_initial <= self.max_nhops):
            raise ValueError("need 1 <= nhops_initial <= max_nhops")
        if self.timer_initial <= 0 or self.max_timer < self.timer_initial:
            raise ValueError("need 0 < timer_initial <= max_timer")
        if self.max_slaves < 1:
            raise ValueError("max_slaves must be >= 1")
        if self.pong_timeout > self.ping_interval:
            raise ValueError("need pong_timeout <= ping_interval")

    @property
    def ping_deadline(self) -> float:
        """Acceptor-side silence limit before closing a connection."""
        return self.ping_interval * self.ping_deadline_factor
