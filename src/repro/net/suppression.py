"""Pluggable rebroadcast suppression for the broadcast planes.

Plain TTL-scoped flooding (the paper's "controlled broadcast") makes
every first-copy receiver rebroadcast once, so a flood over a region of
n nodes with mean radio degree d costs ~n transmissions and ~n*d frame
receptions -- the dominant event source at large n.  The broadcast-storm
literature offers well-understood suppression schemes that cut the
redundant constant factor while keeping reachability; this module packs
two of them behind one small :class:`RebroadcastPolicy` contract so the
flood plane (:mod:`repro.net.broadcast`) and AODV's RREQ dissemination
(:mod:`repro.aodv.protocol`) can switch policy per scenario:

``flood``
    The reference: always rebroadcast the first copy.  It is no policy
    object at all -- :func:`make_rebroadcast_policy` returns ``None`` and
    callers transmit inline.
``probabilistic``
    Gossip-p (Preetha et al., arXiv:1204.1820): rebroadcast with
    probability ``p``, with a *degree-adaptive floor* -- nodes whose
    radio degree is at or below ``degree_floor`` always forward, so
    sparse regions (where every copy matters) never starve.  A spec with
    ``p >= 1`` always forwards, so it builds no policy either: it *is*
    ``flood``.
``counter``
    Counter-based suppression (the classic broadcast-storm scheme):
    hold the rebroadcast for a random assessment delay; if ``threshold``
    duplicate copies are heard before the timer fires, the
    neighbourhood is already covered and the transmission is cancelled.

A plane holds one policy object for all its nodes: every hook takes the
deciding node's id.  Each node draws from its own lazily created stream
``suppression.<plane>.<nid>``, and the policy's counters are labeled
``plane=<kind>`` and classified as *cost* metrics in
:mod:`repro.obs.compare` (suppression accounting, not paper semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from ..obs.registry import Registry
from ..sim.rng import RngRegistry

__all__ = [
    "RebroadcastPolicy",
    "ProbabilisticPolicy",
    "CounterPolicy",
    "PolicySpec",
    "parse_policy_spec",
    "make_rebroadcast_policy",
    "REBROADCAST_KINDS",
    "DEFAULT_GOSSIP_P",
    "DEFAULT_DEGREE_FLOOR",
    "DEFAULT_COUNTER_THRESHOLD",
    "DEFAULT_ASSESSMENT_DELAY",
]

#: accepted ``ScenarioConfig.rebroadcast`` / ``--rebroadcast`` kinds
REBROADCAST_KINDS = ("flood", "probabilistic", "counter")

#: gossip probability when ``probabilistic`` is given without a parameter
DEFAULT_GOSSIP_P = 0.65
#: radio degree at or below which gossip always forwards (sparse guard)
DEFAULT_DEGREE_FLOOR = 3
#: duplicates heard that cancel a pending counter-policy rebroadcast
DEFAULT_COUNTER_THRESHOLD = 3
#: upper bound of the uniform random assessment delay (seconds).  A
#: duplicate can only arrive after a *neighbour's* timer fired plus a
#: radio latency (DEFAULT_LATENCY = 2 ms), so the window must span many
#: latencies for the counting to converge; 48 ms maximizes cancels in
#: the dense bench sweeps while staying far below AODV's per-ring
#: discovery timeouts (2 x 40 ms x (ttl+2)), so route discovery is
#: unaffected.
DEFAULT_ASSESSMENT_DELAY = 0.048


class RebroadcastPolicy:
    """One broadcast plane's rebroadcast decision, for every node.

    The owning plane calls :meth:`forward` instead of transmitting
    directly; the policy invokes ``send`` now, later, or never.
    :meth:`duplicate` notifies the policy of each suppressed duplicate
    copy a node heard (the counter scheme's signal).  Both hooks sit
    on the radio hot path and must be cheap.

    Node ``nid``'s random stream is ``suppression.<plane>.<nid>`` of
    ``rng``, created on its first draw.
    """

    def __init__(
        self,
        *,
        plane: str = "",
        registry: Optional[Registry] = None,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        self.plane = plane
        self.registry = registry if registry is not None else Registry()
        self._rng = rng if rng is not None else RngRegistry(0)
        self._c_suppressed = self.registry.counter("flood.suppressed", plane=plane)

    def _stream(self, nid: int) -> np.random.Generator:
        return self._rng.stream(f"suppression.{self.plane}.{nid}")

    def forward(self, nid: int, key: Hashable, send: Callable[[], None]) -> None:
        """Decide node ``nid``'s rebroadcast of flood id ``key``;
        default: send now."""
        send()

    def duplicate(self, nid: int, key: Hashable) -> None:
        """Node ``nid`` heard a duplicate copy of ``key``."""


class ProbabilisticPolicy(RebroadcastPolicy):
    """Gossip-p rebroadcast with a degree-adaptive floor.

    Parameters
    ----------
    p:
        Rebroadcast probability in ``(0, 1)`` (at ``p >= 1`` the spec
        builds no policy: see :func:`make_rebroadcast_policy`).
    world:
        ``len(world.topology.neighbors(nid))`` is the node's radio degree.
    degree_floor:
        Nodes with radio degree <= this always forward.
    """

    def __init__(
        self,
        *,
        p: float = DEFAULT_GOSSIP_P,
        world,
        degree_floor: int = DEFAULT_DEGREE_FLOOR,
        **kw,
    ) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"gossip p must be in (0, 1), got {p}")
        super().__init__(**kw)
        self.p = float(p)
        self.world = world
        self.degree_floor = int(degree_floor)

    def forward(self, nid: int, key: Hashable, send: Callable[[], None]) -> None:
        if len(self.world.topology.neighbors(nid)) <= self.degree_floor:
            send()  # sparse guard: every copy matters here
        elif float(self._stream(nid).random()) < self.p:
            send()
        else:
            self._c_suppressed.inc()


class _Assessment:
    """One pending counter-policy rebroadcast decision."""

    __slots__ = ("send", "event", "dups")

    def __init__(self, send, event) -> None:
        self.send = send
        self.event = event
        self.dups = 0


class CounterPolicy(RebroadcastPolicy):
    """Counter-based suppression with a random assessment delay.

    A first copy arms a timer at ``U(0, assessment_delay)``; every
    duplicate the node hears while the timer is pending increments
    a counter, and reaching ``threshold`` cancels the rebroadcast (the
    neighbourhood provably received the flood from others).  Timers use
    the kernel's O(1) lazy event cancellation, so a suppressed
    rebroadcast costs no dispatch.
    """

    def __init__(
        self,
        *,
        sim,
        threshold: int = DEFAULT_COUNTER_THRESHOLD,
        assessment_delay: float = DEFAULT_ASSESSMENT_DELAY,
        **kw,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"counter threshold must be >= 1, got {threshold}")
        if assessment_delay <= 0:
            raise ValueError(
                f"assessment_delay must be > 0, got {assessment_delay}"
            )
        if sim is None:
            raise ValueError("counter policy needs the simulator for its timers")
        super().__init__(**kw)
        self.threshold = int(threshold)
        self.assessment_delay = float(assessment_delay)
        self.sim = sim
        #: (nid, key) -> the node's armed assessment of that flood
        self._pending: Dict[Tuple[int, Hashable], _Assessment] = {}
        self._c_cancels = self.registry.counter(
            "flood.assessment_cancels", plane=self.plane
        )

    def forward(self, nid: int, key: Hashable, send: Callable[[], None]) -> None:
        delay = float(self._stream(nid).uniform(0.0, self.assessment_delay))
        pending = (nid, key)
        event = self.sim.schedule(delay, self._fire, pending)
        self._pending[pending] = _Assessment(send, event)

    def _fire(self, pending: Tuple[int, Hashable]) -> None:
        entry = self._pending.pop(pending, None)
        if entry is not None:
            entry.send()

    def duplicate(self, nid: int, key: Hashable) -> None:
        entry = self._pending.get((nid, key))
        if entry is None:
            return
        entry.dups += 1
        if entry.dups >= self.threshold:
            del self._pending[(nid, key)]
            entry.event.cancel()
            self._c_cancels.inc()
            self._c_suppressed.inc()

    @property
    def pending(self) -> int:
        """Assessments currently armed, over all nodes (observability)."""
        return len(self._pending)


# ----------------------------------------------------------------------
# spec parsing and construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicySpec:
    """A validated rebroadcast-policy selector (``kind[:param]``)."""

    kind: str
    param: Optional[float] = None

    def __str__(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param:g}"


def parse_policy_spec(spec: str) -> PolicySpec:
    """Parse ``"flood" | "probabilistic[:p]" | "counter[:c]"``.

    The optional numeric parameter is the gossip probability for
    ``probabilistic`` and the duplicate threshold for ``counter``;
    ``flood`` takes none.
    """
    if isinstance(spec, PolicySpec):
        return spec
    kind, sep, raw = str(spec).partition(":")
    kind = kind.strip()
    if kind not in REBROADCAST_KINDS:
        raise ValueError(
            f"unknown rebroadcast policy {kind!r} (choose from {REBROADCAST_KINDS})"
        )
    if not sep:
        return PolicySpec(kind)
    if kind == "flood":
        raise ValueError(f"policy {kind!r} takes no parameter, got {spec!r}")
    try:
        param = float(raw)
    except ValueError:
        raise ValueError(f"bad parameter in rebroadcast spec {spec!r}") from None
    if kind == "probabilistic" and param <= 0:
        raise ValueError(f"gossip p must be > 0, got {param}")
    if kind == "counter" and (param < 1 or param != int(param)):
        raise ValueError(f"counter threshold must be an integer >= 1, got {param}")
    return PolicySpec(kind, param)


def make_rebroadcast_policy(
    spec,
    *,
    plane: str,
    registry: Registry,
    sim=None,
    rng: Optional[RngRegistry] = None,
    world=None,
) -> Optional[RebroadcastPolicy]:
    """Build one broadcast plane's policy from ``spec``.

    Returns ``None`` for the reference flood -- ``flood`` itself and
    ``probabilistic:p`` with ``p >= 1`` -- which callers run as an
    inline always-forward.  ``world`` is read by ``probabilistic`` (the
    degree floor), ``sim`` by ``counter`` (its timers), and ``rng``
    only when a node actually draws.
    """
    spec = parse_policy_spec(spec)
    common = dict(plane=plane, registry=registry, rng=rng)
    if spec.kind == "probabilistic":
        p = spec.param if spec.param is not None else DEFAULT_GOSSIP_P
        if p < 1.0:
            return ProbabilisticPolicy(p=p, world=world, **common)
    elif spec.kind == "counter":
        threshold = int(spec.param) if spec.param is not None else DEFAULT_COUNTER_THRESHOLD
        return CounterPolicy(threshold=threshold, sim=sim, **common)
    return None
