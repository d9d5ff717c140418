"""The physical world: positions, unit-disk connectivity, hop distances.

This module is the performance-critical substrate.  Every packet
transmission asks "who is in range right now?", and the p2p layer asks
"how many ad-hoc hops separate A and B?" for connection maintenance.

:class:`World` owns the *state* -- positions (one vectorized mobility
evaluation per timestamp), the churn/energy down mask, and the snapshot
quantum -- while every connectivity *query* goes to one
:class:`~repro.net.topology.TopologyBackend`: a uniform-grid spatial
index with one CSR adjacency per snapshot, O(n·k) at bounded density,
from the paper's n = 50..150 to scenarios of thousands of nodes (see
``benchmarks/test_micro_topology.py``).  A stale snapshot is kept when
neither the positions nor the down mask changed and rebuilt otherwise;
:meth:`World.set_down` drops it outright.

Consumers query the backend itself, ``world.topology`` (``link``,
``neighbors``, ``hops_from``, ...), read at call time: tests swap it
on built simulations.  No query materializes an O(n²) structure.
"""

from __future__ import annotations

from typing import List, Optional

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

    # ------------------------------------------------------------------
    # churn / energy
    # ------------------------------------------------------------------
    def is_up(self, i: int) -> bool:
        """A node is up if not administratively down and not depleted.

        O(1) set lookup on the incrementally-maintained up-set -- this
        runs once per frame copy, so it must not touch numpy scalars.
        """
        return i in self._up_ids

    def up_among(self, ids: List[int]) -> List[int]:
        """The up members of the id list ``ids``, order kept.

        The delivery-time liveness pass of a transmission, whose
        receivers may die in flight.  Returns ``ids`` itself (no copy, do
        not mutate) while every node is up -- the common case, which
        costs one length comparison per *transmission* where
        :meth:`is_up` costs a lookup per copy.
        """
        up = self._up_ids
        if len(up) == self.n:
            return ids
        return [i for i in ids if i in up]

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
