"""Connection-lifetime statistics.

§7.4 of the paper explains the missing small-world effect with "due to
the dynamics of the network, the random connections go down before the
nodes could benefit from them".  To test that claim (rather than guess),
the algorithms report every closed connection here, and the harvest
summarizes lifetimes by connection class (regular vs random, initiator
side only so each link counts once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

__all__ = ["ClosedConnection", "LifetimeLog", "lifetime_summary"]


@dataclass(slots=True)
class ClosedConnection:
    """One connection's life, recorded at close time."""

    owner: int
    peer: int
    random: bool
    initiator: bool
    established_at: float
    closed_at: float

    @property
    def lifetime(self) -> float:
        return self.closed_at - self.established_at


class LifetimeLog:
    """Network-wide sink for closed connections."""

    def __init__(self) -> None:
        self.closed: List[ClosedConnection] = []

    def record(self, owner: int, conn, closed_at: float) -> None:
        """Log a connection object being closed by ``owner``."""
        self.closed.append(
            ClosedConnection(
                owner=owner,
                peer=conn.peer,
                random=conn.random,
                initiator=conn.initiator,
                established_at=conn.established_at,
                closed_at=closed_at,
            )
        )

    def __len__(self) -> int:
        return len(self.closed)


def lifetime_summary(log: LifetimeLog) -> Dict[str, Dict[str, float]]:
    """Mean/median/count of lifetimes by class (initiator side only).

    Returns ``{"regular": {...}, "random": {...}}``; a class missing
    from the run yields count 0 and NaN stats.
    """
    out: Dict[str, Dict[str, float]] = {}
    for label, want_random in (("regular", False), ("random", True)):
        lifetimes = np.array(
            [
                c.lifetime
                for c in log.closed
                if c.random == want_random and c.initiator
            ]
        )
        out[label] = {
            "count": float(lifetimes.size),
            "mean": float(lifetimes.mean()) if lifetimes.size else float("nan"),
            "median": _median(lifetimes) if lifetimes.size else float("nan"),
        }
    return out


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-d array, bit for bit, from
    ``np.sort`` (``np.median`` imports ``numpy.ma`` on first call)."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)
