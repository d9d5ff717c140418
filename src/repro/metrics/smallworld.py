"""Small-world reference values (§6.1.2 of the paper).

The paper motivates the Random algorithm with Watts-Strogatz
small-world theory: a small-world graph has the *high clustering
coefficient* of a regular graph and the *short characteristic path
length* of a random graph.  This module holds the closed-form
reference values the paper quotes (``n/2k`` and ``log n / log k``).

Measured graph metrics (clustering coefficient, characteristic path
length, the combined small-world bundle) live on
:class:`repro.metrics.analytics.AnalyticsEngine`.  The bundle takes one
CSR and feeds both metrics from it -- the overlay hands out its own, and
so does every :mod:`repro.theory` lattice:

>>> from repro.metrics.analytics import AnalyticsEngine
>>> engine = AnalyticsEngine()
>>> engine.smallworld_stats(*simulation.overlay.csr())          # doctest: +SKIP
>>> engine.smallworld_stats(*watts_strogatz(200, 8, 0.1, rng))  # doctest: +SKIP
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "regular_graph_pathlength",
    "random_graph_pathlength",
]


def regular_graph_pathlength(n: int, k: int) -> float:
    """The paper's large-regular-graph approximation ``n / 2k``."""
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    return n / (2.0 * k)


def random_graph_pathlength(n: int, k: float) -> float:
    """The paper's large-random-graph approximation ``log n / log k``."""
    if n <= 1 or k <= 1:
        raise ValueError("need n > 1 and k > 1")
    return float(np.log(n) / np.log(k))
