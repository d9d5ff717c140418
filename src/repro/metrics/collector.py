"""Per-node, per-family received-message counters.

The paper's Figures 7-12 all plot "number of <family> messages received
by each node, nodes decreasingly ordered".  The collector is the single
sink every servent reports into; harvesting helpers produce exactly
those sorted curves.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = ["FAMILIES", "MetricsCollector"]

#: message families the paper measures, plus the optional transfer
#: plane and a catch-all
FAMILIES = ("connect", "ping", "query", "transfer", "other")


class MetricsCollector:
    """Counts received p2p messages per node and family."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"need n > 0, got {n}")
        self.n = int(n)
        self.received: Dict[str, np.ndarray] = {
            fam: np.zeros(self.n, dtype=np.int64) for fam in FAMILIES
        }

    # ------------------------------------------------------------------
    def count_received(self, nid: int, family: str) -> None:
        """Record one received message (unknown families fold to other).

        ``nid`` must be a valid node id; numpy would silently wrap a
        negative index onto another node's counter, so the range is
        checked explicitly.
        """
        if not 0 <= nid < self.n:
            raise IndexError(f"node id {nid} out of range [0, {self.n})")
        counts = self.received.get(family)
        if counts is None:
            counts = self.received["other"]
        counts[nid] += 1

    # ------------------------------------------------------------------
    def family_counts(self, family: str) -> np.ndarray:
        """Raw per-node counts for ``family`` (copy)."""
        return self.received[family].copy()

    def sorted_counts(self, family: str, members: Sequence[int]) -> np.ndarray:
        """The paper's curve: counts of ``members``, sorted decreasing."""
        vals = self.received[family][list(members)]
        return np.sort(vals)[::-1]

    def total(self, family: str) -> int:
        """Network-wide received count for ``family``."""
        return int(self.received[family].sum())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        totals = {fam: self.total(fam) for fam in FAMILIES}
        return f"<MetricsCollector {totals}>"
