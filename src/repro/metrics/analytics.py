"""Graph and collector analytics behind one stateless engine.

Every overlay/graph-metric consumer in the package (the scenario
harvest, the connectivity bundle, the small-world stats, the message
curves) asks one :class:`AnalyticsEngine`.  The engine keeps no state
between calls: world views read the topology's CSR, and
:meth:`~AnalyticsEngine.smallworld_stats` -- the one small-world entry
point -- takes a CSR from its caller (the overlay's own for the
harvest, the lattices' for :mod:`repro.theory`).  Each metric runs its
one kernel in :mod:`repro.metrics.graphfast`.

There is one path and no mode.  ``scenarios.runner.harvest`` asks once,
at the end of a run, so per-view state maintained between calls would
never be read twice; an epoch-keyed incremental lane did exactly that
and never hit.  Maintenance belongs behind a benched consumer that asks
repeatedly, not here.

Analytics **never** call ``world.topology.hops_from``: that path
memoizes per-source BFS vectors in the topology's LRU distance cache,
and an analytics sweep over every start node used to evict the
protocol-hot entries mid-run.  Metrics observe the run; they do not
perturb its caches.

The kernels report ``graphfast.*`` counters and wall timers to the
engine's registry; ``repro.obs.compare`` classifies them as *cost*, so
analytics never leak into semantic snapshots.

The clustering summaries reproduce the legacy float **bit-for-bit**
(sequential node-order accumulation over the same per-node rationals,
the historical oracle contract).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs.registry import Registry
from .balance import load_balance_report
from .collector import FAMILIES, MetricsCollector
from .graphfast import average_clustering, component_labels, path_length_sums
from .smallworld import random_graph_pathlength, regular_graph_pathlength

__all__ = ["AnalyticsEngine"]


class AnalyticsEngine:
    """Unified overlay/graph analytics, recomputed on every call.

    Parameters
    ----------
    registry:
        Obs registry for the ``graphfast.*`` kernel counters and wall
        timers (default: a private one).
    """

    def __init__(self, *, registry: Optional[Registry] = None) -> None:
        self.registry = registry if registry is not None else Registry()

    # ------------------------------------------------------------------
    # world-view analytics (legacy connectivity semantics, exactly)
    # ------------------------------------------------------------------
    def components(self, world) -> List[np.ndarray]:
        """Connected components of the radio graph (legacy list shape).

        Matches the historical per-source BFS semantics exactly: each
        *down* node contributes an empty component, members are
        ascending node ids, and ties in size keep min-member-id
        discovery order (``list.sort`` is stable).
        """
        indptr, indices = world.topology.csr()
        labels = component_labels(indptr, indices, registry=self.registry)
        n = len(labels)
        down = world.down_mask()
        order = np.argsort(labels, kind="stable")
        sorted_labels = labels[order]
        starts = (
            np.flatnonzero(
                np.concatenate(([True], sorted_labels[1:] != sorted_labels[:-1]))
            )
            if n
            else np.empty(0, dtype=np.int64)
        )
        bounds = np.append(starts, n)
        members = {
            int(sorted_labels[s]): order[s:e]
            for s, e in zip(bounds[:-1], bounds[1:])
        }
        out: List[np.ndarray] = []
        empty = np.empty(0, dtype=np.int64)
        for start in range(n):
            if down[start]:
                out.append(empty)
            elif int(labels[start]) == start:
                out.append(members[start])
        out.sort(key=len, reverse=True)
        return out

    def connectivity_stats(self, world) -> Dict[str, float]:
        """Bundle: component count/sizes, isolated nodes, degree, pairs."""
        comps = self.components(world)
        degrees = world.topology.degrees()
        n = world.n
        if n < 2:
            reachable = 1.0
        else:
            reachable = sum(len(c) * (len(c) - 1) for c in comps) / (n * (n - 1))
        return {
            "components": float(len(comps)),
            "largest_component": float(len(comps[0])) if comps else 0.0,
            "largest_fraction": float(len(comps[0])) / world.n if comps else 0.0,
            "isolated": float(sum(1 for c in comps if len(c) == 1)),
            "mean_degree": float(degrees.mean()),
            "reachable_pairs": reachable,
        }

    # ------------------------------------------------------------------
    # graph-view analytics (any CSR: the overlay's or a theory lattice's)
    # ------------------------------------------------------------------
    def smallworld_stats(
        self, indptr: np.ndarray, indices: np.ndarray
    ) -> Dict[str, float]:
        """Clustering + path length + the paper's reference values.

        Takes a CSR adjacency -- the harvest passes
        :meth:`repro.core.overlay.OverlayNetwork.csr`, the rewiring sweep
        :func:`repro.theory.watts_strogatz` -- so one CSR feeds both
        metrics.

        >>> import numpy as np
        >>> triangle = np.array([0, 2, 4, 6]), np.array([1, 2, 0, 2, 0, 1])
        >>> stats = AnalyticsEngine().smallworld_stats(*triangle)
        >>> stats["n"], stats["mean_degree"], stats["clustering"], stats["path_length"]
        (3.0, 2.0, 1.0, 1.0)
        """
        n = len(indptr) - 1
        k = float(np.mean(np.diff(indptr))) if n else 0.0
        clustering = average_clustering(indptr, indices, registry=self.registry)
        total, pairs = path_length_sums(indptr, indices, registry=self.registry)
        stats = {
            "n": float(n),
            "mean_degree": k,
            "clustering": float(clustering),
            "path_length": total / pairs if pairs else float("nan"),
        }
        if n > 1 and k > 1:
            stats["regular_ref"] = regular_graph_pathlength(n, max(int(round(k)), 1))
            stats["random_ref"] = random_graph_pathlength(n, max(int(round(k)), 2))
        return stats

    # ------------------------------------------------------------------
    # collector analytics (the message-curve harvest, one idiom)
    # ------------------------------------------------------------------
    def message_curves(
        self, collector: MetricsCollector, members: Sequence[int]
    ) -> Dict[str, np.ndarray]:
        """family -> member counts sorted decreasing (fig 7-12 curves)."""
        return {
            fam: collector.sorted_counts(fam, members) for fam in FAMILIES
        }

    def message_totals(self, collector: MetricsCollector) -> Dict[str, int]:
        """family -> network-wide received total."""
        return {fam: collector.total(fam) for fam in FAMILIES}

    def load_balance(
        self, collector: MetricsCollector, members: Sequence[int]
    ) -> Dict[str, Dict[str, float]]:
        """family -> load-balance metrics over the member counts."""
        members = list(members)
        return {
            fam: load_balance_report(collector.family_counts(fam)[members])
            for fam in FAMILIES
        }
