"""Pluggable rebroadcast-suppression policies for the broadcast planes.

Plain TTL-scoped flooding (the paper's "controlled broadcast") makes
every first-copy receiver rebroadcast once, so a flood over a region of
n nodes with mean radio degree d costs ~n transmissions and ~n*d frame
receptions -- the dominant event source at large n.  The broadcast-storm
literature offers well-understood suppression schemes that cut the
redundant constant factor while keeping reachability; this module packs
four of them behind one small :class:`RebroadcastPolicy` contract so
the flood plane (:mod:`repro.net.broadcast`), AODV's RREQ dissemination
(:mod:`repro.aodv.protocol`) and the Gnutella query plane
(:mod:`repro.core.query`) can switch policy per scenario:

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
    duplicate copies are overheard before the timer fires, the
    neighbourhood is already covered and the transmission is cancelled.
``contact``
    CARD-style contact tables (Helmy et al., arXiv:cs/0208024): forward
    like ``flood`` but harvest overheard traffic into a bounded contact
    table (vicinity peers + file -> holder bindings learned from query
    answers).  The query plane sends new queries *directly* to known
    holders first and only falls back to the TTL-scoped flood when no
    answer arrives within ``fallback_wait`` -- a repeat query costs a
    couple of unicasts instead of a network-wide flood.

Policy objects are per node and per plane; every node's policy on a
plane charges the same counters, labeled ``plane=<kind>`` and
classified as *cost* metrics in :mod:`repro.obs.compare` (suppression
accounting, not paper semantics).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional

import numpy as np

from ..obs.registry import Registry

__all__ = [
    "RebroadcastPolicy",
    "ProbabilisticPolicy",
    "CounterPolicy",
    "ContactPolicy",
    "PolicySpec",
    "parse_policy_spec",
    "make_rebroadcast_policy",
    "REBROADCAST_KINDS",
    "QUERY_POLICY_KINDS",
    "DEFAULT_GOSSIP_P",
    "DEFAULT_DEGREE_FLOOR",
    "DEFAULT_COUNTER_THRESHOLD",
    "DEFAULT_ASSESSMENT_DELAY",
    "DEFAULT_FALLBACK_WAIT",
]

#: accepted ``ScenarioConfig.rebroadcast`` / ``--rebroadcast`` kinds
REBROADCAST_KINDS = ("flood", "probabilistic", "counter", "contact")
#: accepted ``ScenarioConfig.query_policy`` / ``--query-policy`` kinds
QUERY_POLICY_KINDS = ("flood", "contact")

#: gossip probability when ``probabilistic`` is given without a parameter
DEFAULT_GOSSIP_P = 0.65
#: radio degree at or below which gossip always forwards (sparse guard)
DEFAULT_DEGREE_FLOOR = 3
#: duplicate overhears that cancel a pending counter-policy rebroadcast
DEFAULT_COUNTER_THRESHOLD = 3
#: upper bound of the uniform random assessment delay (seconds).  A
#: duplicate can only arrive after a *neighbour's* timer fired plus a
#: radio latency (DEFAULT_LATENCY = 2 ms), so the window must span many
#: latencies for the counting to converge; 48 ms maximizes cancels in
#: the dense bench sweeps while staying far below AODV's per-ring
#: discovery timeouts (2 x 40 ms x (ttl+2)), so route discovery is
#: unaffected.
DEFAULT_ASSESSMENT_DELAY = 0.048
#: seconds a contact-routed query waits for an answer before falling
#: back to the reference TTL-scoped flood (well inside the 30 s
#: response window, so fallback answers still count)
DEFAULT_FALLBACK_WAIT = 5.0

#: bounded contact-table sizes (CARD keeps "a small number of contacts")
MAX_HOLDERS_PER_FILE = 4
MAX_TRACKED_FILES = 512
MAX_VICINITY_PEERS = 64


class RebroadcastPolicy:
    """Per-node, per-plane rebroadcast decision point.

    The owning broadcast agent calls :meth:`forward` instead of
    transmitting directly; the policy invokes ``send`` now, later, or
    never.  :meth:`duplicate` notifies the policy of each suppressed
    duplicate copy overheard (the counter scheme's signal), and
    :meth:`overhear` of each *first* copy (the contact scheme's harvest
    feed).  All hooks must be cheap: they sit on the radio hot path.
    """

    def forward(self, key: Hashable, send: Callable[[], None]) -> None:
        """Decide the rebroadcast of flood id ``key``; default: send now."""
        send()

    def duplicate(self, key: Hashable) -> None:
        """A duplicate copy of ``key`` was overheard (dedup-cache hit)."""

    def overhear(self, origin: int, hops: int) -> None:
        """A first copy originated by ``origin`` arrived after ``hops``."""


class ProbabilisticPolicy(RebroadcastPolicy):
    """Gossip-p rebroadcast with a degree-adaptive floor.

    Parameters
    ----------
    p:
        Rebroadcast probability in ``(0, 1)`` (at ``p >= 1`` the spec
        builds no policy: see :func:`make_rebroadcast_policy`).
    degree_floor:
        Nodes with radio degree <= this always forward.
    rng_factory:
        Lazily invoked to obtain the policy's private random stream
        (so a node that never draws creates no stream).
    degree:
        Callable returning the node's current radio degree.
    """

    def __init__(
        self,
        *,
        p: float = DEFAULT_GOSSIP_P,
        degree_floor: int = DEFAULT_DEGREE_FLOOR,
        rng_factory: Optional[Callable[[], np.random.Generator]] = None,
        degree: Optional[Callable[[], int]] = None,
        registry: Optional[Registry] = None,
        plane: str = "",
    ) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"gossip p must be in (0, 1), got {p}")
        self.p = float(p)
        self.degree_floor = int(degree_floor)
        self._rng_factory = rng_factory
        self._rng: Optional[np.random.Generator] = None
        self._degree = degree
        registry = registry if registry is not None else Registry()
        self._c_suppressed = registry.counter("flood.suppressed", plane=plane)

    def forward(self, key: Hashable, send: Callable[[], None]) -> None:
        if self._degree is not None and self._degree() <= self.degree_floor:
            send()  # sparse guard: every copy matters here
            return
        if self._rng is None:
            if self._rng_factory is None:
                raise RuntimeError("probabilistic policy needs an rng_factory")
            self._rng = self._rng_factory()
        if float(self._rng.random()) < self.p:
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
    duplicate overheard while the timer is pending increments a
    counter, and reaching ``threshold`` cancels the rebroadcast (the
    neighbourhood provably received the flood from others).  Timers use
    the kernel's O(1) lazy event cancellation, so a suppressed
    rebroadcast costs no dispatch.
    """

    def __init__(
        self,
        *,
        threshold: int = DEFAULT_COUNTER_THRESHOLD,
        assessment_delay: float = DEFAULT_ASSESSMENT_DELAY,
        sim=None,
        rng_factory: Optional[Callable[[], np.random.Generator]] = None,
        registry: Optional[Registry] = None,
        plane: str = "",
    ) -> None:
        if threshold < 1:
            raise ValueError(f"counter threshold must be >= 1, got {threshold}")
        if assessment_delay <= 0:
            raise ValueError(
                f"assessment_delay must be > 0, got {assessment_delay}"
            )
        if sim is None:
            raise ValueError("counter policy needs the simulator for its timers")
        self.threshold = int(threshold)
        self.assessment_delay = float(assessment_delay)
        self.sim = sim
        self._rng_factory = rng_factory
        self._rng: Optional[np.random.Generator] = None
        self._pending: Dict[Hashable, _Assessment] = {}
        registry = registry if registry is not None else Registry()
        self._c_suppressed = registry.counter("flood.suppressed", plane=plane)
        self._c_cancels = registry.counter("flood.assessment_cancels", plane=plane)

    def forward(self, key: Hashable, send: Callable[[], None]) -> None:
        if self._rng is None:
            if self._rng_factory is None:
                raise RuntimeError("counter policy needs an rng_factory")
            self._rng = self._rng_factory()
        delay = float(self._rng.uniform(0.0, self.assessment_delay))
        event = self.sim.schedule(delay, self._fire, key)
        self._pending[key] = _Assessment(send, event)

    def _fire(self, key: Hashable) -> None:
        entry = self._pending.pop(key, None)
        if entry is not None:
            entry.send()

    def duplicate(self, key: Hashable) -> None:
        entry = self._pending.get(key)
        if entry is None:
            return
        entry.dups += 1
        if entry.dups >= self.threshold:
            del self._pending[key]
            entry.event.cancel()
            self._c_cancels.inc()
            self._c_suppressed.inc()

    @property
    def pending(self) -> int:
        """Assessments currently armed (observability)."""
        return len(self._pending)


class ContactPolicy(RebroadcastPolicy):
    """CARD-style bounded contact table harvested from overheard traffic.

    On the broadcast plane the policy forwards like ``flood`` (CARD
    does not suppress the floods it still needs) while harvesting a
    vicinity table of recently heard origins.  Its real surface is the
    *query plane*: :meth:`learn_holder` records ``file -> holder``
    bindings from query answers, and :meth:`contacts_for` lets the
    query engine route a repeat query directly to known holders --
    falling back to the scoped flood only on a miss (see
    :meth:`QueryEngine.issue_query <repro.core.query.QueryEngine>`).

    All tables are small LRU maps (CARD's "small number of contacts"),
    so state per node is O(1) regardless of network size.
    """

    def __init__(
        self,
        *,
        max_holders: int = MAX_HOLDERS_PER_FILE,
        max_files: int = MAX_TRACKED_FILES,
        max_peers: int = MAX_VICINITY_PEERS,
        fallback_wait: float = DEFAULT_FALLBACK_WAIT,
        registry: Optional[Registry] = None,
        plane: str = "",
        node: int = -1,
    ) -> None:
        if fallback_wait <= 0:
            raise ValueError(f"fallback_wait must be > 0, got {fallback_wait}")
        self.max_holders = int(max_holders)
        self.max_files = int(max_files)
        self.max_peers = int(max_peers)
        self.fallback_wait = float(fallback_wait)
        self.node = node
        #: file_id -> LRU of holder ids (most recently confirmed last)
        self._holders: "OrderedDict[int, OrderedDict[int, None]]" = OrderedDict()
        #: vicinity: origin -> hops of the most recent overhear
        self._peers: "OrderedDict[int, int]" = OrderedDict()
        registry = registry if registry is not None else Registry()
        self._c_hits = registry.counter("card.contact_hits", plane=plane)
        self._c_fallbacks = registry.counter("card.fallback_floods", plane=plane)
        self._c_learned = registry.counter("card.contacts_learned", plane=plane)

    # -- broadcast-plane hooks -----------------------------------------
    def overhear(self, origin: int, hops: int) -> None:
        if origin == self.node:
            return
        if origin in self._peers:
            self._peers.move_to_end(origin)
        elif len(self._peers) >= self.max_peers:
            self._peers.popitem(last=False)
        self._peers[origin] = hops

    # -- query-plane surface -------------------------------------------
    def learn_holder(self, file_id: int, holder: int) -> None:
        """Record that ``holder`` answered (or served) ``file_id``."""
        if holder == self.node:
            return
        entry = self._holders.get(file_id)
        if entry is None:
            if len(self._holders) >= self.max_files:
                self._holders.popitem(last=False)
            entry = self._holders[file_id] = OrderedDict()
        else:
            self._holders.move_to_end(file_id)
        if holder in entry:
            entry.move_to_end(holder)
        else:
            if len(entry) >= self.max_holders:
                entry.popitem(last=False)
            entry[holder] = None
            self._c_learned.inc()

    def contacts_for(self, file_id: int) -> List[int]:
        """Known holders of ``file_id``, most recently confirmed first."""
        entry = self._holders.get(file_id)
        if not entry:
            return []
        self._holders.move_to_end(file_id)
        return list(reversed(entry))

    def forget(self, file_id: int) -> None:
        """Drop stale holder bindings (a contact-routed query missed)."""
        self._holders.pop(file_id, None)

    def observe_query(self, requirer: int, file_id: int, p2p_hops: int) -> None:
        """Harvest the requirer of a forwarded query into the vicinity."""
        self.overhear(requirer, p2p_hops)

    def count_contact_hit(self) -> None:
        self._c_hits.inc()

    def count_fallback(self) -> None:
        self._c_fallbacks.inc()

    # -- observability --------------------------------------------------
    @property
    def known_files(self) -> int:
        return len(self._holders)

    @property
    def known_peers(self) -> int:
        return len(self._peers)


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
    """Parse ``"flood" | "probabilistic[:p]" | "counter[:c]" | "contact"``.

    The optional numeric parameter is the gossip probability for
    ``probabilistic`` and the duplicate threshold for ``counter``;
    ``flood`` and ``contact`` take none.
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
    if kind in ("flood", "contact"):
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
    node: int,
    registry: Registry,
    sim=None,
    rng_factory: Optional[Callable[[], np.random.Generator]] = None,
    degree: Optional[Callable[[], int]] = None,
) -> Optional[RebroadcastPolicy]:
    """Build one node's policy for one broadcast plane from ``spec``.

    Returns ``None`` for the reference flood -- ``flood`` itself and
    ``probabilistic:p`` with ``p >= 1`` -- which callers run as an
    inline always-forward.  ``rng_factory`` is only invoked when the
    policy actually draws, ``degree`` only when the gossip floor is
    evaluated, and ``sim`` only by ``counter``.
    """
    spec = parse_policy_spec(spec)
    if spec.kind == "flood":
        return None
    if spec.kind == "probabilistic":
        p = spec.param if spec.param is not None else DEFAULT_GOSSIP_P
        if p >= 1.0:
            return None
        return ProbabilisticPolicy(
            p=p,
            rng_factory=rng_factory,
            degree=degree,
            registry=registry,
            plane=plane,
        )
    if spec.kind == "counter":
        return CounterPolicy(
            threshold=int(spec.param) if spec.param is not None else DEFAULT_COUNTER_THRESHOLD,
            sim=sim,
            rng_factory=rng_factory,
            registry=registry,
            plane=plane,
        )
    return ContactPolicy(registry=registry, plane=plane, node=node)
