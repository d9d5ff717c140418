"""Per-node energy accounting.

The paper repeatedly motivates its algorithms by the energy cost of
radio traffic ("each message transmitted or received consumes energy,
which is a restrict resource in a mobile ad-hoc network").  We use the
standard linear first-order radio model (Heinzelman-style):

* transmitting ``b`` bytes costs ``tx_fixed + tx_per_byte * b``
* receiving   ``b`` bytes costs ``rx_fixed + rx_per_byte * b``

The absolute constants are not calibrated to specific hardware -- only
*relative* consumption across algorithms matters for the reproduction --
but the defaults are in the right ballpark for early-2000s 802.11 radios
(microjoules per byte).

Nodes may be given a finite ``capacity``; once it is exhausted the node
is *depleted* and the world stops delivering to/from it.  This powers
the churn/lifetime extension experiments (§8 future work).

Hot-path contract
-----------------
Liveness queries run once per frame copy, so they must not touch numpy
scalars.  The ledger detects capacity crossings *at charge time* and
maintains a plain-Python set of depleted node ids: :meth:`alive` is a
set lookup, and :meth:`poll_depleted` hands the world only the nodes
that crossed since the last poll -- a no-op for infinite-capacity runs
and O(changed) otherwise.  ``consumed`` must therefore only be mutated
through ``charge_tx`` / ``charge_rx`` / ``charge_rx_many`` (or followed
by :meth:`resync`).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["EnergyModel"]


class EnergyModel:
    """Vectorized energy ledger for ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes.
    capacity:
        Initial energy per node in joules; ``float('inf')`` (default)
        disables depletion.
    tx_fixed, tx_per_byte, rx_fixed, rx_per_byte:
        Cost model constants (joules / joules-per-byte).
    """

    def __init__(
        self,
        n: int,
        *,
        capacity: float = float("inf"),
        tx_fixed: float = 50e-6,
        tx_per_byte: float = 4e-6,
        rx_fixed: float = 25e-6,
        rx_per_byte: float = 2e-6,
    ) -> None:
        if n <= 0:
            raise ValueError(f"need n > 0, got {n}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.n = int(n)
        self.capacity = float(capacity)
        self.tx_fixed = tx_fixed
        self.tx_per_byte = tx_per_byte
        self.rx_fixed = rx_fixed
        self.rx_per_byte = rx_per_byte
        self.consumed = np.zeros(self.n)
        self.tx_count = np.zeros(self.n, dtype=np.int64)
        self.rx_count = np.zeros(self.n, dtype=np.int64)
        #: whether depletion can happen at all (skips every threshold check)
        self.finite = math.isfinite(self.capacity)
        # Incremental depletion state: ids that crossed the threshold,
        # and the subset not yet handed out by poll_depleted().
        self._depleted_ids: set = set()
        self._newly_depleted: List[int] = []
        #: immediate threshold-crossing hook (the world points this at
        #: its up-set so ``is_up`` flips the instant a charge drains a
        #: node, matching the pre-incremental live-read semantics)
        self.on_depleted: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    def charge_tx(self, node: int, size: int) -> None:
        """Charge ``node`` for transmitting ``size`` bytes."""
        self.consumed[node] += self.tx_fixed + self.tx_per_byte * size
        self.tx_count[node] += 1
        if self.finite and self.consumed[node] >= self.capacity:
            self._mark_depleted(node)

    def charge_rx(self, node: int, size: int) -> None:
        """Charge ``node`` for receiving ``size`` bytes."""
        self.consumed[node] += self.rx_fixed + self.rx_per_byte * size
        self.rx_count[node] += 1
        if self.finite and self.consumed[node] >= self.capacity:
            self._mark_depleted(node)

    def charge_rx_many(self, nodes: np.ndarray, size: int) -> None:
        """Charge every node in ``nodes`` for receiving ``size`` bytes.

        ``nodes`` must hold *distinct* ids (a fancy-indexed add applies
        once per distinct index).  Each node gets the same single float
        addition :meth:`charge_rx` would make, so ``consumed`` stays
        bit-identical to ``len(nodes)`` per-node calls.
        """
        self.consumed[nodes] += self.rx_fixed + self.rx_per_byte * size
        self.rx_count[nodes] += 1
        if self.finite:
            for node in nodes[self.consumed[nodes] >= self.capacity].tolist():
                self._mark_depleted(node)

    def _mark_depleted(self, node: int) -> None:
        node = int(node)
        if node not in self._depleted_ids:
            self._depleted_ids.add(node)
            self._newly_depleted.append(node)
            if self.on_depleted is not None:
                self.on_depleted(node)

    # ------------------------------------------------------------------
    def poll_depleted(self) -> Tuple[int, ...]:
        """Nodes that crossed the capacity threshold since the last poll.

        O(1) when nothing changed (the common case, and always for
        infinite capacity); O(changed) otherwise.  The world drains this
        after charging to keep its up-set current.
        """
        if not self._newly_depleted:
            return ()
        out = tuple(self._newly_depleted)
        self._newly_depleted.clear()
        return out

    def resync(self) -> Tuple[int, ...]:
        """Rebuild the depletion set from ``consumed`` (after bulk edits).

        Returns the newly discovered depleted nodes; they are also
        queued for the next :meth:`poll_depleted`.
        """
        if not self.finite:
            return ()
        found = [
            int(i)
            for i in np.flatnonzero(self.consumed >= self.capacity)
            if int(i) not in self._depleted_ids
        ]
        for i in found:
            self._mark_depleted(i)
        return tuple(found)

    # ------------------------------------------------------------------
    def remaining(self, node: int) -> float:
        """Energy left for ``node`` (may be ``inf``)."""
        return self.capacity - float(self.consumed[node])

    def depleted(self) -> np.ndarray:
        """Boolean mask of nodes that have run out of energy."""
        return self.consumed >= self.capacity

    def alive(self, node: int) -> bool:
        """Whether ``node`` still has energy to participate.

        O(1): no numpy scalar coercion -- a flag check for infinite
        capacity, a set lookup otherwise.
        """
        return not self.finite or node not in self._depleted_ids

    def total_consumed(self) -> float:
        """Network-wide consumed energy (joules)."""
        return float(self.consumed.sum())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EnergyModel n={self.n} total={self.total_consumed():.6f}J "
            f"depleted={int(self.depleted().sum())}>"
        )
