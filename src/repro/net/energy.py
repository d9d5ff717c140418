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
keeps a plain-Python set of depleted node ids, so :meth:`alive` is a
set lookup.  Each crossing fires :attr:`EnergyModel.on_depleted` once,
inside the charge that caused it: the world points that hook at
``World.set_down``, so whoever charged, the drained node leaves the
up-set and the topology at that charge, with no poll to forget.
The ledger itself is a plain-Python list: a charge is one float
addition on a list item, with no numpy scalar boxing.  ``consumed``
reads it out as a fresh read-only numpy array, so a stray write raises
instead of silently editing a copy; the ledger changes only through
``charge_tx`` / ``charge_rx`` / ``charge_rx_many``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = ["EnergyModel"]


def _frozen(values: list, dtype) -> np.ndarray:
    """A fresh read-only array of ``values``."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class EnergyModel:
    """Energy ledger for ``n`` nodes.

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
        self._consumed: List[float] = [0.0] * self.n
        #: whether depletion can happen at all (skips every threshold check)
        self.finite = math.isfinite(self.capacity)
        #: ids that crossed the capacity threshold
        self._depleted_ids: set = set()
        #: threshold-crossing hook, called once per node inside the
        #: charge that drains it (the world points it at ``set_down``)
        self.on_depleted: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    @property
    def consumed(self) -> np.ndarray:
        """Joules consumed per node (a fresh read-only float64 array)."""
        return _frozen(self._consumed, np.float64)

    # ------------------------------------------------------------------
    def charge_tx(self, node: int, size: int) -> None:
        """Charge ``node`` for transmitting ``size`` bytes."""
        consumed = self._consumed
        consumed[node] += self.tx_fixed + self.tx_per_byte * size
        if self.finite and consumed[node] >= self.capacity:
            self._mark_depleted(node)

    def charge_rx(self, node: int, size: int) -> None:
        """Charge ``node`` for receiving ``size`` bytes."""
        consumed = self._consumed
        consumed[node] += self.rx_fixed + self.rx_per_byte * size
        if self.finite and consumed[node] >= self.capacity:
            self._mark_depleted(node)

    def charge_rx_many(self, nodes: Sequence[int], size: int) -> None:
        """Charge every node in ``nodes`` for receiving ``size`` bytes.

        ``nodes`` must hold *distinct* ids.  Each node gets the same
        single float addition :meth:`charge_rx` would make, so
        ``consumed`` stays bit-identical to ``len(nodes)`` per-node
        calls; capacity crossings fire after all charges, in the order
        of ``nodes``.
        """
        cost = self.rx_fixed + self.rx_per_byte * size
        consumed = self._consumed
        for node in nodes:
            consumed[node] += cost
        if self.finite:
            capacity = self.capacity
            for node in nodes:
                if consumed[node] >= capacity:
                    self._mark_depleted(node)

    def _mark_depleted(self, node: int) -> None:
        node = int(node)
        if node not in self._depleted_ids:
            self._depleted_ids.add(node)
            if self.on_depleted is not None:
                self.on_depleted(node)

    # ------------------------------------------------------------------
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
