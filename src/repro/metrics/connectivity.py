"""Physical-connectivity sizing helpers.

The paper's scenarios are *sparse*: 50 nodes with 10 m radios on
100 m x 100 m average ~1.6 neighbours, so the ad-hoc network is usually
partitioned.  Measured connectivity analytics (component structure,
isolation, reachable-pair fraction) live on
:class:`repro.metrics.analytics.AnalyticsEngine`, which labels the
components of the topology's current CSR on every call.  This module
keeps only the closed-form sizing guide.

The engine inherits the cache-discipline contract: analytics **never**
call ``world.topology.hops_from`` (that path memoizes per-source BFS
vectors in the topology's LRU distance cache, and an analytics sweep
over every start node used to evict the protocol-hot entries mid-run).
Sampling metrics must observe the run, not perturb its caches.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "expected_mean_degree",
]


def expected_mean_degree(n: int, area_w: float, area_h: float, radio_range: float) -> float:
    """Poisson approximation of the mean degree: ``(n-1) * pi r^2 / A``.

    Edge effects make the true value lower; useful as a sizing guide
    when designing density sweeps.
    """
    if n < 1 or area_w <= 0 or area_h <= 0 or radio_range <= 0:
        raise ValueError("invalid geometry")
    return (n - 1) * np.pi * radio_range**2 / (area_w * area_h)
