"""The Watts-Strogatz rewiring sweep and overlay small-worldness.

Two entry points:

* :func:`rewiring_sweep` -- the classic WS experiment: sweep the
  rewiring probability p, report normalized clustering C(p)/C(0) and
  path length L(p)/L(0).  The small-world window is where L has
  collapsed but C has not.
* :func:`overlay_smallworldness` -- score a *simulated overlay graph*
  (from :meth:`OverlayNetwork.graph`) against the theory: sigma
  coefficient plus the lattice/random reference values for its (n, k).

This is the study the paper defers to future work in §8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import networkx as nx
import numpy as np

from ..metrics.analytics import AnalyticsEngine
from ..metrics.graphfast import graph_csr
from .lattice import watts_strogatz
from .predictions import (
    lattice_clustering,
    lattice_pathlength,
    random_clustering,
    random_pathlength,
    smallworld_sigma,
)

__all__ = ["SweepPoint", "rewiring_sweep", "overlay_smallworldness"]


@dataclass(slots=True)
class SweepPoint:
    """One p of the rewiring sweep (averages over repetitions)."""

    p: float
    clustering: float
    path_length: float
    clustering_norm: float
    path_length_norm: float


def rewiring_sweep(
    n: int = 200,
    k: int = 8,
    ps: Sequence[float] = (0.0, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0),
    reps: int = 3,
    seed: int = 0,
) -> List[SweepPoint]:
    """Run the WS sweep; returns one :class:`SweepPoint` per p."""
    rng = np.random.default_rng(seed)
    engine = AnalyticsEngine()
    base_c = base_l = None
    points: List[SweepPoint] = []
    for p in ps:
        cs, ls = [], []
        for _ in range(reps):
            g = watts_strogatz(n, k, p, rng)
            stats = engine.smallworld_stats(*graph_csr(g)[:2])
            cs.append(stats["clustering"])
            ls.append(stats["path_length"])
        c, l = float(np.mean(cs)), float(np.nanmean(ls))
        if base_c is None:
            base_c, base_l = c, l
        points.append(
            SweepPoint(
                p=float(p),
                clustering=c,
                path_length=l,
                clustering_norm=c / base_c if base_c else float("nan"),
                path_length_norm=l / base_l if base_l else float("nan"),
            )
        )
    return points


def overlay_smallworldness(g: nx.Graph) -> dict:
    """Score an overlay snapshot against the small-world references.

    Returns the measured clustering/path length, the theory's lattice
    and random reference values at the overlay's (n, mean degree), and
    the sigma coefficient.
    """
    stats = AnalyticsEngine().smallworld_stats(*graph_csr(g)[:2])
    n = int(stats["n"])
    k = stats["mean_degree"]
    c = stats["clustering"]
    l = stats["path_length"]
    out = {
        "n": n,
        "mean_degree": k,
        "clustering": c,
        "path_length": l,
        "sigma": smallworld_sigma(c, l, n, k) if n > 1 and k > 1 else float("nan"),
    }
    k_int = max(int(round(k)), 2)
    if n > k_int:
        out["lattice_clustering"] = lattice_clustering(k_int)
        out["lattice_pathlength"] = lattice_pathlength(n, k_int)
    if n > 1 and k > 1:
        out["random_clustering"] = random_clustering(n, k)
        out["random_pathlength"] = random_pathlength(n, k)
    return out
