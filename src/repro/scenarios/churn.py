"""Node death/birth (churn) process -- §8 future work.

"We are most interested in analyzing the effects of ... death/birth
rate of nodes in ad-hoc and p2p layers."

A :class:`ChurnProcess` kills live nodes with exponential inter-death
times and revives them after an exponential off-time, driving exactly
the reorganization behaviour the paper worries about: dead peers take
their references down with them, survivors' maintenance notices and
re-runs the (re)configuration machinery, and the revived node rejoins
from scratch.

Servent state is intentionally *not* reset on death: stale references
on both sides must be discovered and cleaned by the protocols (ping
timeouts, slave resets), not by simulator fiat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..net.world import World
from ..sim.kernel import Simulator

__all__ = ["ChurnProcess", "ChurnEvent"]


@dataclass(slots=True)
class ChurnEvent:
    """One death or rebirth."""

    time: float
    node: int
    kind: str  # "death" | "birth"


class ChurnProcess:
    """Random node failures and recoveries.

    Parameters
    ----------
    sim, world:
        Substrate handles.
    rng:
        Random stream for victim selection and timing.
    death_rate:
        Expected network-wide deaths per second (exponential
        inter-death times).  0 disables deaths.
    mean_downtime:
        Mean seconds a dead node stays down before rejoining
        (exponential); ``inf`` makes deaths permanent.
    immune:
        Nodes that never die (e.g. a sink under study).
    """

    def __init__(
        self,
        sim: Simulator,
        world: World,
        rng: np.random.Generator,
        *,
        death_rate: float,
        mean_downtime: float = 120.0,
        immune: Sequence[int] = (),
    ) -> None:
        if death_rate < 0:
            raise ValueError(f"death_rate must be >= 0, got {death_rate}")
        if mean_downtime <= 0:
            raise ValueError(f"mean_downtime must be positive, got {mean_downtime}")
        self.sim = sim
        self.world = world
        self.rng = rng
        self.death_rate = float(death_rate)
        self.mean_downtime = float(mean_downtime)
        self.immune = frozenset(int(i) for i in immune)
        self.events: List[ChurnEvent] = []
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the process (idempotent)."""
        if self._started or self.death_rate == 0:
            return
        self._started = True
        self._schedule_next_death()

    def _schedule_next_death(self) -> None:
        delay = float(self.rng.exponential(1.0 / self.death_rate))
        self.sim.schedule(delay, self._kill_one)

    def _kill_one(self) -> None:
        candidates = [
            i
            for i in range(self.world.n)
            if self.world.is_up(i) and i not in self.immune
        ]
        if candidates:
            victim = int(candidates[int(self.rng.integers(len(candidates)))])
            self.world.set_down(victim)
            self.events.append(ChurnEvent(self.sim.now, victim, "death"))
            if np.isfinite(self.mean_downtime):
                downtime = float(self.rng.exponential(self.mean_downtime))
                self.sim.schedule(downtime, self._revive, victim)
        self._schedule_next_death()

    def _revive(self, node: int) -> None:
        # A node that drained its battery meanwhile stays dead: set_down
        # leaves it down, and no birth is recorded.
        self.world.set_down(node, down=False)
        if self.world.is_up(node):
            self.events.append(ChurnEvent(self.sim.now, node, "birth"))

    # ------------------------------------------------------------------
    @property
    def deaths(self) -> int:
        return sum(1 for e in self.events if e.kind == "death")

    @property
    def births(self) -> int:
        return sum(1 for e in self.events if e.kind == "birth")

    def timeline(self) -> List[Tuple[float, int, str]]:
        """The raw (time, node, kind) history."""
        return [(e.time, e.node, e.kind) for e in self.events]
