"""Incremental analytics plane behind one engine API.

Every overlay/graph-metric consumer in the package (the scenario
harvest, the connectivity bundle, the small-world stats, the message
curves) historically called loose functions with inconsistent
signatures -- ``clustering_coefficient(g)``, ``components(world)``,
``collector.sorted_counts(...)`` -- and each call recomputed its
metrics from scratch even when the underlying edge set had not changed
since the previous harvest.  :class:`AnalyticsEngine` unifies them and
adds one fast lane:

* **mode = "incremental" | "full"** -- the incremental lane keeps
  per-view state (adjacency sets, per-node triangle counts, component
  labels) keyed on the view's *epoch* (``world.adjacency_epoch`` for
  world views).  Repeat queries in the same epoch are memo hits;
  between epochs the engine applies **edge deltas** (explicit, or
  diffed from the CSR pair) in O(delta * degree) instead of
  recomputing O(E) kernels.  Any epoch discontinuity -- the epoch
  moving backwards, the node count changing -- falls back to a full
  rebuild.  ``"full"`` is the stateless reference lane: every call
  recomputes from the kernels in :mod:`repro.metrics.graphfast`.  The
  two lanes are exactly equal on every metric
  (``tests/test_analytics.py``) because the deltas are integer-exact:
  identical triangle/degree/label integers feed identical IEEE float
  expressions.

The engine reports obs counters (``analytics.incremental_hits``,
``analytics.full_recomputes``, ``analytics.csr_cache_hits``, ...) to
its registry;
``repro.obs.compare`` classifies the ``analytics.`` prefix as *cost*,
so lane choice never leaks into semantic snapshots.

Two clustering summaries, deliberately distinct:

* :meth:`AnalyticsEngine.clustering_coefficient` /
  :meth:`smallworld_stats` reproduce the legacy float **bit-for-bit**
  (sequential node-order accumulation, the historical oracle contract).
* the :meth:`harvest` bundle's ``"clustering"`` uses numpy's pairwise
  sum over the same per-node coefficients -- deterministic and
  lane-identical, and O(n) vectorized so per-harvest cost stays flat --
  but it is *not* the same float as the sequential sum on large graphs.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.registry import Registry, default_registry
from .balance import load_balance_report
from .collector import FAMILIES, MetricsCollector
from .graphfast import (
    DEFAULT_CHUNK,
    component_labels,
    graph_csr,
    path_length_sums,
    triangle_counts,
)

__all__ = [
    "ANALYTICS_MODES",
    "AnalyticsEngine",
    "engine_for_world",
    "set_world_engine",
]

#: Maintenance lanes: how per-view state is kept between harvests.
ANALYTICS_MODES = ("incremental", "full")

#: Delta application is O(delta * degree) *python*; past this many
#: changed edges per sync a full vectorized recompute is cheaper.
_DELTA_EDGE_FLOOR = 32
_DELTA_EDGE_FRACTION = 0.25

#: Node-visit budget of the bidirectional split probe run when a
#: removed edge has no common-neighbor witness.  Past this the probe
#: gives up and the sync falls back to a full label rebuild -- the
#: probe exists to keep the *common* case (the endpoints reconnect
#: within a couple of hops) off the O(E) rebuild path.
_SPLIT_SEARCH_CAP = 4096


class _ViewState:
    """Incremental per-view analytics state for one epoch.

    Beyond the core state (adjacency sets, triangle counts, component
    labels) it carries *maintained aggregates* -- degrees, per-node
    clustering coefficients, the triangle total and the component-size
    statistics -- updated in O(delta) by
    :meth:`AnalyticsEngine._apply_delta` so a harvest needs just one
    O(n) pass (``coeffs.sum()``).  Every aggregate is either
    integer-exact or a bitwise-identical float array, so the stateless
    full lane reproduces them exactly.
    """

    __slots__ = (
        "epoch",
        "n",
        "indptr",
        "indices",
        "adj",
        "tri",
        "labels",
        "memo",
        "deg",
        "coeffs",
        "tri_total",
        "sizes",
        "n_comps",
        "largest",
        "reach_num",
    )

    def __init__(self, epoch, n, indptr, indices, adj, tri, labels) -> None:
        self.epoch = epoch
        self.n = n
        self.indptr = indptr
        self.indices = indices
        #: list of per-node neighbor sets (python ints)
        self.adj = adj
        #: per-node triangle counts, int64
        self.tri = tri
        #: component labels (min node id of each component), int64
        self.labels = labels
        #: derived values memoized for this epoch (cleared on change)
        self.memo: Dict[str, Any] = {}
        #: per-node degrees, int64 (maintained under deltas)
        self.deg = np.diff(indptr)
        #: per-node clustering coefficients (maintained under deltas;
        #: the scalar refresh is bitwise-equal to the vectorized kernel)
        self.coeffs = _clustering_coeffs(tri, self.deg)
        #: 3 * triangle count (every triangle counted at all 3 corners)
        self.tri_total = int(tri.sum())
        self.reset_size_stats()

    def reset_size_stats(self) -> None:
        """Recompute the component-size aggregates from ``labels``."""
        n = self.n
        sizes = np.bincount(self.labels, minlength=max(n, 1))
        #: per-label component sizes (slot = the component's min id)
        self.sizes = sizes
        self.n_comps = int((sizes > 0).sum())
        self.largest = int(sizes.max()) if n else 0
        #: sum of s * (s - 1) over components: reachable ordered pairs
        self.reach_num = int((sizes * (sizes - 1)).sum())


def _packed_edges(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique packed keys ``u * n + v`` (u < v) of a CSR view."""
    if not len(indices):
        return np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    mask = rows < indices
    # CSR rows ascend and neighbors ascend within each row, so the
    # packed keys come out globally sorted -- no sort needed.
    return rows[mask] * np.int64(n) + indices[mask]


def _sorted_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elements of sorted-unique ``a`` absent from sorted-unique ``b``."""
    if not len(a) or not len(b):
        return a.copy()
    at = np.searchsorted(b, a)
    # A key past b's end cannot be present; clamping it to slot 0 is
    # safe because the equality test below then fails (a > b[-1] >= b[0]).
    at[at == len(b)] = 0
    return a[b[at] != a]


def _pair_keys(pairs, n: int) -> np.ndarray:
    """(k, 2) edge array -> sorted packed keys ``min * n + max``."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if not len(arr):
        return np.empty(0, dtype=np.int64)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    return np.sort(lo * np.int64(n) + hi)


def _adjacency_sets(indptr: np.ndarray, indices: np.ndarray, n: int) -> List[set]:
    return [
        set(indices[indptr[i] : indptr[i + 1]].tolist()) for i in range(n)
    ]


def _sequential_average(coeffs: np.ndarray) -> float:
    """Node-order sequential float sum / n -- the legacy oracle contract."""
    n = len(coeffs)
    if n == 0:
        return 0.0
    total = 0.0
    for c in coeffs:
        total += c
    return float(total / n)


def _clustering_coeffs(tri: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Per-node coefficients from triangle + degree integers.

    The same float expression as :func:`graphfast.local_clustering`, so
    identical integers give bit-identical coefficients.
    """
    k = deg.astype(np.float64)
    possible = k * (k - 1.0) / 2.0
    out = np.zeros(len(tri), dtype=np.float64)
    eligible = possible > 0.0
    out[eligible] = tri[eligible].astype(np.float64) / possible[eligible]
    return out


def _resolve_removal(st: _ViewState, u: int, v: int) -> bool:
    """Repair the state after removing witness-less edge ``(u, v)``.

    Bidirectional BFS over the (already updated) adjacency sets, always
    expanding the smaller frontier.  Three outcomes:

    * the frontiers meet -- the component did not split, labels are
      already correct;
    * one side exhausts first -- that side is exactly one of the two
      new components (one edge removal splits a component into at most
      comp(u) and comp(v): any path between old members either avoided
      the removed edge or reached an endpoint before crossing it), so
      relabel both halves with their min ids -- the labels-are-
      component-min-ids invariant survives -- and patch the maintained
      size aggregates;
    * the visit budget runs out -- return ``False`` and let the caller
      fall back to a full label rebuild.
    """
    adj, labels = st.adj, st.labels
    seen_u, seen_v = {u}, {v}
    frontier_u, frontier_v = {u}, {v}
    while frontier_u and frontier_v:
        if len(seen_u) + len(seen_v) > _SPLIT_SEARCH_CAP:
            return False
        if len(frontier_u) <= len(frontier_v):
            frontier, seen, other = frontier_u, seen_u, seen_v
        else:
            frontier, seen, other = frontier_v, seen_v, seen_u
        nxt = set()
        for x in frontier:
            for y in adj[x]:
                if y in other:
                    return True  # still one component
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        if frontier is frontier_u:
            frontier_u = nxt
        else:
            frontier_v = nxt
    side = np.fromiter(
        seen_u if not frontier_u else seen_v, dtype=np.int64
    )
    old = int(labels[u])
    members = np.flatnonzero(labels == old)
    rest = np.setdiff1d(members, side, assume_unique=False)
    side_min, rest_min = int(side.min()), int(rest.min())
    labels[side] = side_min
    labels[rest] = rest_min
    t, s, r = len(members), len(side), len(rest)
    st.reach_num += s * (s - 1) + r * (r - 1) - t * (t - 1)
    st.sizes[old] = 0  # old is side_min or rest_min; re-assign both below
    st.sizes[side_min] = s
    st.sizes[rest_min] = r
    st.n_comps += 1
    if t == st.largest:
        st.largest = int(st.sizes.max())
    return True


class AnalyticsEngine:
    """Unified overlay/graph analytics with an incremental lane.

    Parameters
    ----------
    mode:
        ``"incremental"`` (epoch-keyed state + edge deltas, the default)
        or ``"full"`` (stateless reference lane, recompute every call).
    chunk:
        BFS chunk width (sources advanced together per kernel call).
    registry:
        Obs registry for ``analytics.*`` counters and the wall timers;
        defaults to the process-local default registry.
    """

    def __init__(
        self,
        *,
        mode: str = "incremental",
        chunk: int = DEFAULT_CHUNK,
        registry: Optional[Registry] = None,
    ) -> None:
        if mode not in ANALYTICS_MODES:
            raise ValueError(f"unknown analytics mode {mode!r}")
        self.mode = mode
        self.chunk = int(chunk)
        self.registry = registry if registry is not None else default_registry()
        self._views: Dict[Any, _ViewState] = {}
        #: key -> (epoch, graph_csr output): skips the O(E) python CSR
        #: build for nx-graph views whose epoch has not moved.
        self._csr_memo: Dict[Any, Tuple[Any, tuple]] = {}
        reg = self.registry
        self._c_cache_hits = reg.counter("analytics.csr_cache_hits", layer="metrics")
        self._c_incremental = reg.counter("analytics.incremental_hits", layer="metrics")
        self._c_full = reg.counter("analytics.full_recomputes", layer="metrics")
        self._c_delta_edges = reg.counter("analytics.delta_edges", layer="metrics")
        self._c_epoch_fallbacks = reg.counter(
            "analytics.epoch_fallbacks", layer="metrics"
        )
        self._c_label_rebuilds = reg.counter(
            "analytics.label_rebuilds", layer="metrics"
        )

    # ------------------------------------------------------------------
    # state maintenance (the incremental lane's core)
    # ------------------------------------------------------------------
    def _build_state(self, epoch, n, indptr, indices) -> _ViewState:
        tri = triangle_counts(indptr, indices, registry=self.registry)
        labels = component_labels(indptr, indices, registry=self.registry)
        adj = _adjacency_sets(indptr, indices, n)
        self._c_full.inc()
        return _ViewState(epoch, n, indptr, indices, adj, tri, labels)

    def _apply_delta(
        self,
        st: _ViewState,
        added: np.ndarray,
        removed: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        epoch,
    ) -> None:
        """Mutate ``st`` from its edge set to the one in ``indptr/indices``.

        ``added`` / ``removed`` are packed keys (``u * n + v``, u < v)
        describing the exact transition.  Triangle updates are
        integer-exact whatever the application order, because each edge
        is applied against the current adjacency sets.  Component
        labels stay exact cheaply: merges take the min label (which
        preserves the labels-are-component-min-ids invariant), and a
        removal whose endpoints share a neighbor provably cannot split
        a component; only removals without that witness force a label
        rebuild from the new CSR.
        """
        n = st.n
        adj, tri, labels = st.adj, st.tri, st.labels
        deg, sizes, coeffs = st.deg, st.sizes, st.coeffs
        affected = set()
        need_label_rebuild = False
        for key in removed.tolist():
            u, v = divmod(key, n)
            adj[u].discard(v)
            adj[v].discard(u)
            deg[u] -= 1
            deg[v] -= 1
            affected.add(u)
            affected.add(v)
            common = adj[u] & adj[v]
            if common:
                c = len(common)
                tri[u] -= c
                tri[v] -= c
                st.tri_total -= 3 * c
                for w in common:
                    tri[w] -= 1
                    affected.add(w)
            elif not need_label_rebuild:
                # No witness: the component *may* have split.  A capped
                # bidirectional probe settles it locally; only a capped-
                # out probe falls back to the O(E) rebuild.
                need_label_rebuild = not _resolve_removal(st, u, v)
        for key in added.tolist():
            u, v = divmod(key, n)
            common = adj[u] & adj[v]
            if common:
                c = len(common)
                tri[u] += c
                tri[v] += c
                st.tri_total += 3 * c
                for w in common:
                    tri[w] += 1
                    affected.add(w)
            adj[u].add(v)
            adj[v].add(u)
            deg[u] += 1
            deg[v] += 1
            affected.add(u)
            affected.add(v)
            if not need_label_rebuild:
                lu, lv = labels[u], labels[v]
                if lu != lv:
                    lo, hi = (int(lu), int(lv)) if lu < lv else (int(lv), int(lu))
                    labels[labels == hi] = lo
                    a, b = int(sizes[lo]), int(sizes[hi])
                    merged = a + b
                    st.reach_num += merged * (merged - 1) - a * (a - 1) - b * (b - 1)
                    sizes[lo] = merged
                    sizes[hi] = 0
                    st.n_comps -= 1
                    if merged > st.largest:
                        st.largest = merged
        # Refresh the coefficient of every node whose triangle count or
        # degree moved; the scalar expression mirrors the elementwise
        # kernel in _clustering_coeffs, so the array stays bitwise equal
        # to a from-scratch vectorized computation.
        for i in affected:
            k = float(deg[i])
            possible = k * (k - 1.0) / 2.0
            coeffs[i] = float(tri[i]) / possible if possible > 0.0 else 0.0
        if need_label_rebuild:
            st.labels = component_labels(indptr, indices, registry=self.registry)
            st.reset_size_stats()
            self._c_label_rebuilds.inc()
        st.epoch = epoch
        st.indptr = indptr
        st.indices = indices
        st.memo = {}
        self._c_incremental.inc()
        self._c_delta_edges.inc(len(added) + len(removed))

    def _sync(
        self,
        key,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        epoch=None,
        added=None,
        removed=None,
    ) -> _ViewState:
        """Return up-to-date state for ``key``'s current CSR view.

        ``epoch`` is the view's change counter (``world.adjacency_epoch``
        for world views): equal epoch means the cached state (and its
        memoized derived metrics) is reused outright.  ``added`` /
        ``removed`` are optional explicit (k, 2) edge arrays describing
        the exact transition since the cached state; without them the
        delta is diffed from the two CSRs.  Epoch discontinuities (the
        epoch moving backwards, the node count changing) discard the
        state and rebuild.
        """
        n = len(indptr) - 1
        with self.registry.timed("analytics.sync"):
            if self.mode != "incremental" or key is None:
                # full lane, or an anonymous one-shot view: stateless.
                return self._build_state(epoch, n, indptr, indices)
            st = self._views.get(key)
            if st is not None and epoch is not None and st.epoch == epoch and st.n == n:
                self._c_cache_hits.inc()
                return st
            discontinuity = st is not None and (
                st.n != n
                or (epoch is not None and st.epoch is not None and epoch < st.epoch)
            )
            if st is None or discontinuity:
                if discontinuity:
                    self._c_epoch_fallbacks.inc()
                st = self._build_state(epoch, n, indptr, indices)
                self._views[key] = st
                return st
            if added is not None or removed is not None:
                add_keys = _pair_keys(added if added is not None else (), n)
                del_keys = _pair_keys(removed if removed is not None else (), n)
            else:
                old_keys = _packed_edges(st.indptr, st.indices, n)
                new_keys = _packed_edges(indptr, indices, n)
                add_keys = _sorted_diff(new_keys, old_keys)
                del_keys = _sorted_diff(old_keys, new_keys)
            n_delta = len(add_keys) + len(del_keys)
            if n_delta > max(_DELTA_EDGE_FLOOR, int(_DELTA_EDGE_FRACTION * n)):
                st = self._build_state(epoch, n, indptr, indices)
                self._views[key] = st
                return st
            self._apply_delta(st, add_keys, del_keys, indptr, indices, epoch)
            return st

    def _graph_csr(self, g, key, epoch) -> tuple:
        """``graph_csr(g)``, cached on ``(key, epoch)``.

        ``smallworld_stats`` historically rebuilt the CSR twice per
        harvest (once per metric); with a ``key`` the engine builds it
        once, and with an ``epoch`` (e.g. ``world.adjacency_epoch`` for
        radio-graph views) repeat harvests in an unchanged epoch skip
        the build entirely (``analytics.csr_cache_hits``).
        """
        if key is not None and epoch is not None:
            hit = self._csr_memo.get(key)
            if hit is not None and hit[0] == epoch:
                self._c_cache_hits.inc()
                return hit[1]
        out = graph_csr(g)
        if key is not None and epoch is not None:
            self._csr_memo[key] = (epoch, out)
        return out

    def _world_state(self, world) -> _ViewState:
        indptr, indices = world.topology.csr()
        return self._sync(
            ("world", id(world)), indptr, indices, epoch=world.adjacency_epoch
        )

    # ------------------------------------------------------------------
    # BFS plane
    # ------------------------------------------------------------------
    def path_length_sums(
        self, indptr: np.ndarray, indices: np.ndarray
    ) -> Tuple[int, int]:
        """All-pairs ``(total_hops, connected_pairs)`` of a CSR view."""
        return path_length_sums(
            indptr, indices, chunk=self.chunk, registry=self.registry
        )

    # ------------------------------------------------------------------
    # CSR-view analytics (no nx.Graph on the hot path)
    # ------------------------------------------------------------------
    def harvest(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        key=None,
        epoch=None,
        added=None,
        removed=None,
    ) -> Dict[str, float]:
        """The flat-cost per-interval metric bundle for one CSR view.

        Everything here is maintainable in O(delta * degree) python +
        O(n) vectorized numpy, which is what keeps per-harvest cost flat
        as n grows (the ``analytics_plane`` bench rung).  The
        characteristic path length is deliberately *not* in the bundle
        -- it is O(n * E / 64) however it is maintained; ask
        :meth:`characteristic_path_length_csr` for it on demand (the
        answer memoizes per epoch).

        ``key`` enables the incremental lane across calls (any hashable;
        world views use the world identity); ``epoch`` / ``added`` /
        ``removed`` follow the :meth:`_sync` contract.
        """
        st = self._sync(
            key, indptr, indices, epoch=epoch, added=added, removed=removed
        )
        cached = st.memo.get("harvest")
        if cached is not None:
            return dict(cached)
        with self.registry.timed("analytics.harvest"):
            n = st.n
            edges = int(len(st.indices)) // 2
            # Everything but the coefficient sum comes from aggregates
            # maintained in O(delta); the single O(n) pass left is the
            # pairwise np.sum, identical on both lanes because the
            # coeffs arrays are bitwise equal.
            bundle = {
                "n": float(n),
                "edges": float(edges),
                "mean_degree": (2.0 * edges / n) if n else 0.0,
                "triangles": float(st.tri_total // 3),
                "clustering": float(st.coeffs.sum() / n) if n else 0.0,
                "components": float(st.n_comps),
                "largest_component": float(st.largest),
                "reachable_pairs": (
                    st.reach_num / (n * (n - 1)) if n > 1 else 1.0
                ),
            }
        st.memo["harvest"] = bundle
        return dict(bundle)

    def characteristic_path_length_csr(
        self, indptr: np.ndarray, indices: np.ndarray, *, key=None, epoch=None
    ) -> float:
        """CPL of a CSR view (memoized per epoch)."""
        if key is None:
            # No state to key the memo on: just run the BFS.
            total, pairs = self.path_length_sums(indptr, indices)
            return total / pairs if pairs else float("nan")
        st = self._sync(key, indptr, indices, epoch=epoch)
        cached = st.memo.get("cpl")
        if cached is None:
            total, pairs = self.path_length_sums(st.indptr, st.indices)
            cached = total / pairs if pairs else float("nan")
            st.memo["cpl"] = cached
        return cached

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
        st = self._world_state(world)
        cached = st.memo.get("components")
        if cached is not None:
            return list(cached)
        n = st.n
        labels = st.labels
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
        st.memo["components"] = out
        return list(out)

    def reachable_pair_fraction(self, world) -> float:
        """Fraction of ordered node pairs with a multi-hop path right now."""
        comps = self.components(world)
        n = world.n
        if n < 2:
            return 1.0
        reachable = sum(len(c) * (len(c) - 1) for c in comps)
        return reachable / (n * (n - 1))

    def connectivity_stats(self, world) -> Dict[str, float]:
        """Bundle: component count/sizes, isolated nodes, degree, pairs."""
        comps = self.components(world)
        degrees = world.degrees()
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
    # graph-view analytics (nx input tolerated at the API edge only)
    # ------------------------------------------------------------------
    def clustering_coefficient(self, g, *, key=None, epoch=None) -> float:
        """Average clustering coefficient of a networkx graph.

        Bit-identical to the historical
        ``smallworld.clustering_coefficient`` (sequential node-order
        accumulation over the same per-node rationals).
        """
        if g.number_of_nodes() == 0:
            return 0.0
        indptr, indices, _ = self._graph_csr(g, key, epoch)
        if key is None:
            tri = triangle_counts(indptr, indices, registry=self.registry)
            return _sequential_average(_clustering_coeffs(tri, np.diff(indptr)))
        st = self._sync(key, indptr, indices, epoch=epoch)
        return self._sequential_clustering(st)

    def characteristic_path_length(self, g, *, key=None, epoch=None) -> float:
        """Mean shortest-path length over connected ordered pairs (nan if none)."""
        indptr, indices, _ = self._graph_csr(g, key, epoch)
        return self.characteristic_path_length_csr(
            indptr, indices, key=key, epoch=epoch
        )

    def smallworld_stats(self, g, *, key=None, epoch=None) -> Dict[str, float]:
        """Clustering + path length + the paper's reference values.

        One ``graph_csr`` build feeds both metrics (the legacy module
        built the CSR once per metric); with ``key``/``epoch`` the
        incremental state is shared across harvests too.
        """
        from .smallworld import random_graph_pathlength, regular_graph_pathlength

        n = g.number_of_nodes()
        degrees = [d for _, d in g.degree]
        k = float(np.mean(degrees)) if degrees else 0.0
        if n == 0:
            clustering = 0.0
            cpl = float("nan")
        elif key is None:
            # One CSR build feeds both metrics, no state kept.
            indptr, indices, _ = self._graph_csr(g, key, epoch)
            tri = triangle_counts(indptr, indices, registry=self.registry)
            clustering = _sequential_average(
                _clustering_coeffs(tri, np.diff(indptr))
            )
            total, pairs = self.path_length_sums(indptr, indices)
            cpl = total / pairs if pairs else float("nan")
        else:
            indptr, indices, _ = self._graph_csr(g, key, epoch)
            st = self._sync(key, indptr, indices, epoch=epoch)
            clustering = self._sequential_clustering(st)
            cached = st.memo.get("cpl")
            if cached is None:
                total, pairs = self.path_length_sums(st.indptr, st.indices)
                cached = total / pairs if pairs else float("nan")
                st.memo["cpl"] = cached
            cpl = cached
        stats = {
            "n": float(n),
            "mean_degree": k,
            "clustering": clustering,
            "path_length": cpl,
        }
        if n > 1 and k > 1:
            stats["regular_ref"] = regular_graph_pathlength(n, max(int(round(k)), 1))
            stats["random_ref"] = random_graph_pathlength(n, max(int(round(k)), 2))
        return stats

    def _sequential_clustering(self, st: _ViewState) -> float:
        cached = st.memo.get("clustering_seq")
        if cached is None:
            # st.coeffs is bitwise equal to the vectorized kernel's
            # array, so the sequential sum matches the legacy oracle.
            cached = _sequential_average(st.coeffs)
            st.memo["clustering_seq"] = cached
        return cached

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


#: Per-world engine cache: the deprecated module-level wrappers and the
#: scenario builder share one engine (and one incremental state) per
#: World, reporting to that world's registry.
_WORLD_ENGINES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def engine_for_world(world, *, mode: Optional[str] = None) -> AnalyticsEngine:
    """The world's shared engine (created on first use).

    ``mode`` is applied on creation; passing a mode that differs from
    the cached engine's replaces it (fresh state, same registry).
    """
    eng = _WORLD_ENGINES.get(world)
    if eng is None or (mode is not None and eng.mode != mode):
        eng = AnalyticsEngine(
            mode=mode if mode is not None else "incremental",
            registry=world.registry,
        )
        _WORLD_ENGINES[world] = eng
    return eng


def set_world_engine(world, engine: AnalyticsEngine) -> AnalyticsEngine:
    """Register ``engine`` as ``world``'s shared engine.

    The scenario builder calls this so the engine configured by
    ``ScenarioConfig`` (its ``analytics_mode``) is the one every
    module-level helper -- and any direct
    :func:`engine_for_world` call -- resolves to for that world.
    """
    _WORLD_ENGINES[world] = engine
    return engine
