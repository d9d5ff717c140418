"""Closed-form small-world reference values.

The quantities the paper quotes in §6.1.2 plus the standard
Watts-Strogatz results needed for the §8 theoretical study:

* regular ring lattice: clustering ``3(k-2) / (4(k-1))``, characteristic
  path length ``~ n / 2k``  (the paper's "n/2k");
* random graph with mean degree k: clustering ``~ k/n``, path length
  ``~ log n / log k`` (the paper's "log n / log k");
* the small-world coefficient sigma = (C/C_rand) / (L/L_rand): sigma > 1
  signals small-world structure;
* Newman-Moore-Watts scaling for the expected path length of a rewired
  lattice (first-order approximation).

The two path-length closed forms are the ones the harvest reports,
defined once in :mod:`repro.metrics.smallworld` and re-exported here
under the theory's names.
"""

from __future__ import annotations

import numpy as np

from ..metrics.smallworld import random_graph_pathlength as random_pathlength
from ..metrics.smallworld import regular_graph_pathlength as lattice_pathlength

__all__ = [
    "lattice_clustering",
    "lattice_pathlength",
    "random_clustering",
    "random_pathlength",
    "smallworld_sigma",
    "nmw_pathlength",
]


def lattice_clustering(k: int) -> float:
    """Clustering coefficient of the ring lattice: ``3(k-2)/(4(k-1))``."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if k == 2:
        return 0.0
    return 3.0 * (k - 2) / (4.0 * (k - 1))


def random_clustering(n: int, k: float) -> float:
    """Expected clustering of an Erdos-Renyi graph with mean degree k."""
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    return float(k) / n


def smallworld_sigma(
    clustering: float, path_length: float, n: int, k: float
) -> float:
    """The small-world coefficient sigma = (C/C_rand) / (L/L_rand).

    sigma substantially above 1 indicates small-world structure (high
    clustering relative to random, path length close to random).
    Returns ``nan`` when the reference values degenerate.
    """
    try:
        c_rand = random_clustering(n, k)
        l_rand = random_pathlength(n, k)
    except ValueError:
        return float("nan")
    if c_rand <= 0 or l_rand <= 0 or path_length <= 0 or not np.isfinite(path_length):
        return float("nan")
    return (clustering / c_rand) / (path_length / l_rand)


def nmw_pathlength(n: int, k: int, p: float) -> float:
    """Newman-Moore-Watts mean-field path length of a rewired lattice.

    ``L(p) ~ (n / k) * f(n k p / 2)`` with
    ``f(x) = 1/(2 sqrt(x^2 + 2x)) * artanh( sqrt(x / (x + 2)) )``
    (Newman, Moore & Watts 1999).  Valid for small p; at p=0 it reduces
    to the lattice value n/2k, and it decays logarithmically as the
    number of shortcuts grows.
    """
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    x = n * k * p / 2.0
    if x == 0:
        return lattice_pathlength(n, k)  # f(0+) -> 1/4, i.e. exactly n/2k
    f = 1.0 / (2.0 * np.sqrt(x * x + 2.0 * x)) * np.arctanh(np.sqrt(x / (x + 2.0)))
    return float(n / k * f * 2.0)
