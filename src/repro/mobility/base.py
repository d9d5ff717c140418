"""Mobility model base class.

Positions are *functions of time*: each node follows a piecewise-linear
trajectory made of segments ``(t0, t1, origin, dest)``; within a segment
the node moves linearly from ``origin`` (at ``t0``) to ``dest`` (at
``t1``).  A pause is a segment with ``origin == dest``.

The base class stores all segments in flat numpy arrays so that
evaluating *every* node's position at a query time is a single
vectorized expression -- this is the hot path of the whole simulator
(the radio layer asks for all positions whenever a packet is sent).
Concrete models only implement :meth:`_next_segment`, which generates
the next segment for one node.

All models are deterministic given their ``numpy.random.Generator``.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

__all__ = ["Area", "MobilityModel"]


class Area:
    """An axis-aligned rectangular deployment area ``[0,w] x [0,h]``.

    The paper deploys nodes on a 100 m x 100 m square.
    """

    __slots__ = ("width", "height")

    def __init__(self, width: float = 100.0, height: float = 100.0) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"area dimensions must be positive, got {width}x{height}")
        self.width = float(width)
        self.height = float(height)

    def contains(self, pts: np.ndarray, atol: float = 1e-9) -> np.ndarray:
        """Boolean mask: which rows of ``pts`` (n,2) lie inside the area."""
        pts = np.asarray(pts, dtype=float)
        return (
            (pts[..., 0] >= -atol)
            & (pts[..., 0] <= self.width + atol)
            & (pts[..., 1] >= -atol)
            & (pts[..., 1] <= self.height + atol)
        )

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Uniformly sample ``n`` points; returns an (n,2) array."""
        pts = rng.random((n, 2))
        pts[:, 0] *= self.width
        pts[:, 1] *= self.height
        return pts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Area({self.width}x{self.height})"


class MobilityModel(abc.ABC):
    """Piecewise-linear mobility with lazy, vectorized evaluation.

    Parameters
    ----------
    n:
        Number of nodes.
    area:
        Deployment area; initial positions are uniform over it.
    rng:
        Random stream (owned by this model).

    Subclasses implement :meth:`_next_segment` returning the duration and
    destination of a node's next movement segment.

    Notes
    -----
    The model keeps no history: it only rolls each node's segment
    forward.  Queries need not be non-decreasing, but one earlier than a
    node's current segment start returns that segment's origin, not the
    node's past position.  A monotone simulation clock never asks for one.
    """

    def __init__(self, n: int, area: Area, rng: np.random.Generator) -> None:
        if n <= 0:
            raise ValueError(f"need at least one node, got n={n}")
        self.n = int(n)
        self.area = area
        self.rng = rng
        init = area.sample(rng, self.n)
        # Each node draws from its own spawned stream so its trajectory is
        # a pure function of (seed, node) -- independent of how often or in
        # what order positions() is queried.
        self._rngs = rng.spawn(self.n)
        # Current segment per node.
        self._t0 = np.zeros(self.n)
        self._t1 = np.zeros(self.n)
        self._origin = init.copy()
        self._dest = init.copy()
        # Prime the first segment of every node so spans are positive.
        for i in range(self.n):
            dur, dest = self._next_segment(i, 0.0, init[i])
            if dur <= 0:
                raise ValueError(
                    f"{type(self).__name__}._next_segment returned duration {dur}"
                )
            self._t1[i] = dur
            self._dest[i] = dest

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _next_segment(
        self, i: int, t: float, pos: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Generate node ``i``'s next segment starting at time ``t``.

        Parameters
        ----------
        i: node index.
        t: segment start time.
        pos: node position at ``t`` (shape (2,)).

        Returns
        -------
        (duration, dest):
            Segment length in seconds (> 0) and destination point.  A
            pause returns ``(pause, pos)``.

        Implementations must draw randomness from ``self._rngs[i]`` only,
        so that node trajectories are independent of query order.
        """

    # ------------------------------------------------------------------
    def _refresh(self, t: float) -> None:
        """Roll expired segments forward so every segment covers ``t``."""
        expired = (self._t1 < t).nonzero()[0]
        for i in expired:
            # A node may complete several segments between queries.
            while self._t1[i] < t:
                start = self._t1[i]
                pos = self._dest[i]
                dur, dest = self._next_segment(int(i), float(start), pos)
                if dur <= 0:
                    raise ValueError(
                        f"{type(self).__name__}._next_segment returned duration {dur}"
                    )
                self._t0[i] = start
                self._t1[i] = start + dur
                self._origin[i] = pos
                self._dest[i] = dest

    def positions(self, t: float) -> np.ndarray:
        """All node positions at time ``t`` as an (n,2) float array.

        The returned array is freshly allocated; callers may mutate it.
        """
        self._refresh(t)
        t0 = self._t0
        # Pauses have span>0 too, so no division guard needed beyond this.
        frac = (t - t0) / (self._t1 - t0)
        # np.clip(frac, 0, 1), in place through the ufuncs
        np.maximum(frac, 0.0, out=frac)
        np.minimum(frac, 1.0, out=frac)
        origin = self._origin
        return origin + frac[:, None] * (self._dest - origin)

    def position(self, i: int, t: float) -> np.ndarray:
        """Position of node ``i`` at time ``t`` (shape (2,))."""
        return self.positions(t)[i]
