"""Lossy radio: probabilistic reception near the range edge.

The unit-disk model (reception iff distance <= range) is the standard
MANET abstraction but real radios degrade gradually.  The smooth-disk
refinement keeps reception certain inside a solid core and decays the
delivery probability linearly toward the range edge:

    p(d) = 1                                  for d <= solid * range
    p(d) = 1 - (1 - edge_p) * (d - s) / (r - s)   for s < d <= range

Per-copy losses are drawn from a dedicated deterministic stream, so
runs remain reproducible.  Use ``ScenarioConfig(mac="lossy")`` to put a
whole scenario on it; upper layers need no changes (they already treat
every message as droppable).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..sim.kernel import Simulator
from .packet import Frame
from .radio import Channel
from .world import World

__all__ = ["LossyChannel"]


class LossyChannel(Channel):
    """Channel with distance-dependent reception probability.

    Metrics carry ``layer="lossy"``.

    Parameters
    ----------
    solid:
        Fraction of the radio range with guaranteed reception.
    edge_p:
        Delivery probability exactly at the range edge.
    seed:
        Loss-draw randomness (deterministic).
    """

    LAYER = "lossy"

    def __init__(
        self,
        sim: Simulator,
        world: World,
        *,
        solid: float = 0.8,
        edge_p: float = 0.3,
        seed: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(sim, world, **kwargs)
        if not 0 < solid <= 1:
            raise ValueError(f"solid must be in (0, 1], got {solid}")
        if not 0 <= edge_p <= 1:
            raise ValueError(f"edge_p must be in [0, 1], got {edge_p}")
        self.solid = float(solid)
        self.edge_p = float(edge_p)
        self._rng = np.random.default_rng(seed)
        self._c_losses = self.registry.counter("net.losses", layer=self.LAYER)

    # ------------------------------------------------------------------
    def delivery_probability(self, src: int, dst: int) -> float:
        """p(reception) for the current positions of src and dst."""
        pos = self.world.positions()
        d = float(np.hypot(*(pos[dst] - pos[src])))
        r = self.world.radio_range
        s = self.solid * r
        if d <= s:
            return 1.0
        if d > r:
            return 0.0
        return 1.0 - (1.0 - self.edge_p) * (d - s) / (r - s)

    def _accept(self, src: int, dst: int) -> bool:
        p = self.delivery_probability(src, dst)
        if p >= 1.0:
            return True
        if self._rng.random() < p:
            return True
        self._c_losses.inc()
        return False

    def _receivers(self, frame: Frame) -> List[int]:
        # Loss draws happen at SEND time in ascending-nid order, so the
        # RNG stream is consumed identically whether the surviving
        # receivers then share one event or the per-copy reference lane
        # gives each its own.
        src = frame.src
        accept = self._accept
        return [dst for dst in super()._receivers(frame) if accept(src, dst)]
