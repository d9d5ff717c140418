"""The physical world: positions, unit-disk connectivity, hop distances.

This module is the performance-critical substrate.  Every packet
transmission asks "who is in range right now?", and the p2p layer asks
"how many ad-hoc hops separate A and B?" for connection maintenance.

:class:`World` owns the *state* -- positions (one vectorized mobility
evaluation per timestamp), the churn/energy down mask, and the snapshot
quantum -- and delegates every connectivity *query* to one
:class:`~repro.net.topology.TopologyBackend`: a uniform-grid spatial
index with one CSR adjacency per adjacency epoch, O(n·k) at bounded
density, from the paper's n = 50..150 to scenarios of thousands of nodes
(see ``benchmarks/test_micro_topology.py``).

Consumers go through the query interface (:meth:`World.link`,
:meth:`World.neighbors`, :meth:`World.hops_from`, ...), which never
touches an O(n²) structure.  :meth:`World.adjacency` survives for
analytics and tests; the backend materializes it on demand.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..mobility.base import Area, MobilityModel
from ..obs.registry import Registry
from ..sim.kernel import Simulator
from .energy import EnergyModel
from .topology import UNREACHABLE, TopologyBackend

__all__ = ["World", "UNREACHABLE"]


class World:
    """Physical layer state shared by all nodes.

    Parameters
    ----------
    sim:
        The discrete-event simulator (the world reads ``sim.now``).
    mobility:
        Mobility model for all ``n`` nodes.
    radio_range:
        Unit-disk communication radius in metres (paper: 10 m).
    energy:
        Optional energy ledger; defaults to an infinite-capacity model.
    snapshot_interval:
        Connectivity snapshots older than this many seconds are
        recomputed; younger ones are reused.  0 (default) means exact
        per-timestamp snapshots.  At the paper's <= 1 m/s speeds a
        0.25 s quantum moves a node <= 0.25 m (2.5 % of the radio
        range), a negligible error that removes the snapshot recompute
        from event-burst hot paths.
    registry:
        Observability registry shared with the topology backend; the
        simulator's registry is used when not supplied.
    """

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        *,
        radio_range: float = 10.0,
        energy: Optional[EnergyModel] = None,
        snapshot_interval: float = 0.0,
        registry: Optional[Registry] = None,
    ) -> None:
        if radio_range <= 0:
            raise ValueError(f"radio_range must be positive, got {radio_range}")
        if snapshot_interval < 0:
            raise ValueError(f"snapshot_interval must be >= 0, got {snapshot_interval}")
        self.snapshot_interval = float(snapshot_interval)
        if registry is None:
            registry = getattr(sim, "registry", None)
        self.registry = registry if registry is not None else Registry()
        self.sim = sim
        self.mobility = mobility
        self.n = mobility.n
        self.radio_range = float(radio_range)
        self.energy = energy if energy is not None else EnergyModel(self.n)
        if self.energy.n != self.n:
            raise ValueError(
                f"energy model sized for {self.energy.n} nodes, world has {self.n}"
            )
        # Per-timestamp position cache.
        self._pos_time = -1.0
        self._pos: np.ndarray = np.empty((self.n, 2))
        #: nodes taken out of the topology: administratively down (churn
        #: experiments) or drained by the energy ledger
        self._down = self.energy.depleted()
        #: incremental up-set, the complement of ``_down``: is_up() is a
        #: plain set lookup (no per-call numpy coercion); set_down()
        #: keeps it current.
        self._up_ids: set = set(np.flatnonzero(~self._down).tolist())
        # The one depletion signal: a charge that drains a node takes it
        # down at that charge, whoever charged.
        self.energy.on_depleted = self.set_down
        #: the connectivity backend
        self.topology = TopologyBackend(self)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def positions(self) -> np.ndarray:
        """(n,2) positions at the current simulation time (cached)."""
        t = self.sim.now
        if t != self._pos_time:
            self._pos = self.mobility.positions(t)
            self._pos_time = t
        return self._pos

    def down_mask(self) -> np.ndarray:
        """Boolean (n,) mask of nodes that are down, administratively or
        drained (read-only)."""
        return self._down

    def invalidate(self) -> None:
        """Force the topology backend to recompute on the next query."""
        self.topology.invalidate()

    @property
    def adjacency_epoch(self) -> int:
        """Counter advanced whenever the radio edge set may have changed.

        Memoize graph-derived state against this, never against
        timestamps: the epoch stands still across snapshot refreshes
        that provably kept the adjacency (see DESIGN.md).
        """
        return self.topology.adjacency_epoch

    # ------------------------------------------------------------------
    # connectivity queries (delegated to the backend)
    # ------------------------------------------------------------------
    def adjacency(self) -> np.ndarray:
        """Boolean (n,n) in-range matrix at the current time.

        ``adj[i, j]`` is True iff ``i != j``, both nodes are up, and
        their distance is <= the radio range.  Analytics/debugging
        surface: the backend materializes this on demand, so hot paths
        must use :meth:`link` / :meth:`neighbors` instead.
        """
        return self.topology.adjacency_matrix()

    def csr(self):
        """CSR adjacency ``(indptr, indices)`` of the current snapshot.

        The zero-copy surface the vectorized graph kernels
        (:mod:`repro.metrics.graphfast`) run on; do not mutate, and
        re-fetch whenever :attr:`adjacency_epoch` advances.
        """
        return self.topology.csr()

    def link(self, i: int, j: int) -> bool:
        """Whether a radio link ``i``--``j`` exists right now."""
        return self.topology.link(i, j)

    def neighbors(self, i: int) -> np.ndarray:
        """Node ids within radio range of ``i`` right now (ascending)."""
        return self.topology.neighbors(i)

    def degrees(self) -> np.ndarray:
        """(n,) radio degree of every node right now."""
        return self.topology.degrees()

    def link_count(self) -> int:
        """Number of undirected radio links right now."""
        return self.topology.link_count()

    def hops_from(self, src: int) -> np.ndarray:
        """Ad-hoc hop distance from ``src`` to every node (cached BFS).

        Returns an int array; unreachable nodes get :data:`UNREACHABLE`.
        """
        return self.topology.hops_from(src)

    def hop_distance(self, a: int, b: int) -> int:
        """Hops between ``a`` and ``b`` now; UNREACHABLE if disconnected."""
        return self.topology.hop_distance(a, b)

    def reachable(self, a: int, b: int) -> bool:
        """Whether a multi-hop path currently exists between the nodes."""
        return self.topology.reachable(a, b)

    # ------------------------------------------------------------------
    # churn / energy
    # ------------------------------------------------------------------
    def is_up(self, i: int) -> bool:
        """A node is up if not administratively down and not depleted.

        O(1) set lookup on the incrementally-maintained up-set -- this
        runs once per frame copy, so it must not touch numpy scalars.
        """
        return i in self._up_ids

    def up_among(self, ids: np.ndarray) -> np.ndarray:
        """The up members of the int64 id array ``ids``, order kept.

        Returns ``ids`` itself (no copy, do not mutate) while every node
        is up -- the common case, which costs one length comparison per
        *transmission* where :meth:`is_up` costs a lookup per copy.
        """
        up = self._up_ids
        if len(up) == self.n:
            return ids
        return np.array([i for i in ids.tolist() if i in up], dtype=np.int64)

    def up_ids(self) -> frozenset:
        """The current up-set (ids neither down nor depleted), frozen."""
        return frozenset(self._up_ids)

    def set_down(self, i: int, down: bool = True) -> None:
        """Administratively kill (or revive) a node; invalidates caches.

        Reviving a drained node is a no-op: it stays out of the up-set
        and the topology.
        """
        i = int(i)
        if down:
            self._up_ids.discard(i)
        elif self.energy.alive(i):
            self._up_ids.add(i)
        else:
            return
        self._down[i] = down
        self.topology.invalidate()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<World n={self.n} range={self.radio_range} t={self.sim.now:.1f}>"
        )
