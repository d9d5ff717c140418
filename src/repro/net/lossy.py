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

from typing import Optional

import numpy as np

from ..sim.kernel import Simulator
from .packet import BROADCAST, Frame
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

    @property
    def losses(self) -> int:
        """Copies lost to the range-edge draw (deprecated view of ``net.losses``)."""
        return self._c_losses.value

    def stats(self):
        out = super().stats()
        out["losses"] = self._c_losses.value
        return out

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

    # ------------------------------------------------------------------
    def unicast(self, frame: Frame) -> bool:
        if frame.dst == BROADCAST:
            raise ValueError("use broadcast() for broadcast frames")
        if not self.world.is_up(frame.src):
            return False
        self.world.energy.charge_tx(frame.src, frame.size)
        self._c_sent.inc()
        ok = (
            self.world.link(frame.src, frame.dst)
            and self.world.is_up(frame.dst)
            and self._accept(frame.src, frame.dst)
        )
        if ok:
            self.sim.schedule(self.latency, self._deliver, frame.dst, frame)
        self.world.check_depletion()
        return ok

    def broadcast(self, frame: Frame) -> int:
        # Loss draws happen at SEND time in ascending-nid order on both
        # lanes, so the RNG stream is consumed identically whether the
        # surviving receiver set then rides one batch event or one event
        # per copy.
        world = self.world
        src = frame.src
        if not world.is_up(src):
            return 0
        world.energy.charge_tx(src, frame.size)
        self._c_sent.inc()
        accept = self._accept
        receivers = np.array(
            [dst for dst in world.up_among(world.neighbors(src)).tolist() if accept(src, dst)],
            dtype=np.int64,
        )
        self._schedule_copies(
            self.latency, receivers, self._deliver_batch, self._deliver, frame
        )
        world.check_depletion()
        return len(receivers)
