"""Static (no movement) placement -- the zero-mobility baseline.

Useful for unit tests and for isolating protocol behaviour from
mobility-induced churn.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import Area, MobilityModel

__all__ = ["Static"]


class Static(MobilityModel):
    """Nodes stay where they were initially (uniformly) placed.

    Optionally accepts explicit ``positions`` (overriding the uniform
    placement), which tests use to build hand-crafted topologies.
    """

    def __init__(
        self,
        n: int,
        area: Area,
        rng: np.random.Generator,
        *,
        positions: np.ndarray | None = None,
    ) -> None:
        super().__init__(n, area, rng)
        if positions is not None:
            pts = np.asarray(positions, dtype=float)
            if pts.shape != (n, 2):
                raise ValueError(f"positions must be ({n},2), got {pts.shape}")
            if ((pts < -1e-9) | (pts > [area.width + 1e-9, area.height + 1e-9])).any():
                raise ValueError("explicit positions fall outside the area")
            self._origin = pts.copy()
            self._dest = pts.copy()

    def _next_segment(self, i: int, t: float, pos: np.ndarray) -> Tuple[float, np.ndarray]:
        # One giant pause; effectively never regenerated.
        return 1e12, pos.copy()
