"""Load-balance metrics for the per-node message curves.

§7.4 of the paper argues in prose: "The best way to cope with lack of
resources in ad-hoc networks is to distribute the work among all nodes.
If the network is homogeneous, the more uniform the distribution, the
best performance ... if the network is heterogeneous, we should assign
a higher load to nodes with higher capacity."  These metrics turn that
prose into numbers:

* the **Gini coefficient** (0 = perfectly even, -> 1 = one node does
  everything) quantifies how even Regular/Random's load is and how
  *deliberately uneven* Hybrid's is;
* the **Lorenz curve** is the cumulative-share view behind Gini;
* **Jain's fairness index** (1 = even, 1/n = one node does everything)
  is the classic networking alternative.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["gini", "lorenz_curve", "jain_fairness", "load_balance_report"]


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative load vector.

    Returns 0.0 for an empty, all-zero or single-element vector.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size <= 1:
        return 0.0
    if (v < 0).any():
        raise ValueError("loads must be non-negative")
    total = v.sum()
    if total == 0:
        return 0.0
    v = np.sort(v)
    n = v.size
    # G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n, with i as 1-based
    idx = np.arange(1, n + 1)
    return float((2.0 * np.sum(idx * v)) / (n * total) - (n + 1.0) / n)


def lorenz_curve(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Lorenz curve points ``(population_share, load_share)``.

    Both arrays start at 0 and end at 1; loads are sorted ascending
    (the standard presentation).
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size == 0 or v.sum() == 0:
        x = np.linspace(0.0, 1.0, max(v.size, 1) + 1)
        return x, x.copy()
    cum = np.concatenate([[0.0], np.cumsum(v)]) / v.sum()
    x = np.linspace(0.0, 1.0, v.size + 1)
    return x, cum


def jain_fairness(values: np.ndarray) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 when all nodes carry identical load; 1/n in the fully
    concentrated limit.  Returns 1.0 for all-zero input (vacuously fair).
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return 1.0
    if (v < 0).any():
        raise ValueError("loads must be non-negative")
    if np.sum(v * v) < 1e-290:
        # Squares this small are subnormal and lose precision (or
        # underflow to 0 outright); the index is scale-invariant, so
        # measure the loads relative to their peak instead.
        peak = v.max()
        if peak == 0:
            return 1.0
        v = v / peak
    return float(np.sum(v) ** 2 / (v.size * np.sum(v * v)))


def load_balance_report(values: np.ndarray) -> dict:
    """Bundle of all balance metrics for one load vector."""
    v = np.asarray(values, dtype=float)
    return {
        "gini": gini(v),
        "jain": jain_fairness(v),
        "max_share": float(v.max() / v.sum()) if v.size and v.sum() > 0 else 0.0,
        "mean": float(v.mean()) if v.size else 0.0,
        "max": float(v.max()) if v.size else 0.0,
    }
