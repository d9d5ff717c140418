"""Vectorized graph-metric kernels over CSR adjacency arrays.

One kernel per graph metric, with no per-source python loop.  Every
kernel operates on a CSR adjacency ``(indptr, indices)`` --
``indices[indptr[i]:indptr[i+1]]`` are node ``i``'s neighbors
ascending -- exactly the arrays the topology backend
(:meth:`repro.net.topology.TopologyBackend.csr`), the overlay
(:meth:`repro.core.overlay.OverlayNetwork.csr`) and :func:`graph_csr`
(for networkx graphs) hand out.  Nothing here imports networkx.

* :func:`component_labels` -- connected components by min-label
  propagation with pointer jumping (no per-node python BFS).
* :func:`triangle_counts` -- per-node triangle counts by vectorized
  wedge expansion with binary-searched edge membership.
* :func:`local_clustering` / :func:`average_clustering` -- clustering,
  bit-identical to the python/networkx formulation (same rational
  operands, same summation order), which is what lets the test oracles
  demand *exact* agreement rather than ``allclose``.
* :func:`path_length_sums` -- the all-pairs hop total and connected
  pair count behind the characteristic path length: bit-parallel
  level-synchronous BFS, 64 sources per uint64 bit lane, one
  ``bitwise_or.reduceat`` over the CSR rows advancing every source in a
  chunk one level.

Every kernel reports invocation counters (``graphfast.*``) and wall time
(``wall{section=graphfast.<kernel>}``) to a registry;
``repro.obs.compare`` classifies those as cost metrics, so which
analytics implementation ran never leaks into semantic snapshots.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from ..obs.registry import Registry

__all__ = [
    "graph_csr",
    "component_labels",
    "triangle_counts",
    "local_clustering",
    "average_clustering",
    "path_length_sums",
]

#: Sources advanced together per BFS chunk.  Large enough to amortize
#: the per-level python overhead, small enough that the per-level
#: bitset scratch (edges x chunk/64 uint64 words) stays cache-friendly.
DEFAULT_CHUNK = 256

#: Edge-expansion block size for :func:`triangle_counts`: caps the
#: scratch arrays at ~this many (edge, wedge) entries per block.
_TRIANGLE_BLOCK = 1 << 20


def _registry(registry: Optional[Registry]) -> Registry:
    return registry if registry is not None else Registry()


if hasattr(np, "bitwise_count"):

    def _popcount(a: np.ndarray) -> int:
        return int(np.bitwise_count(a).sum())

else:  # NumPy < 2.0 has no bitwise_count ufunc

    def _popcount(a: np.ndarray) -> int:
        return int(np.unpackbits(np.ascontiguousarray(a).view(np.uint8)).sum())


def _nonempty_starts(
    indptr: np.ndarray, deg: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, starts)`` of the non-empty CSR rows, for ``reduceat``.

    ``reduceat`` segments run start-to-next-start, so feeding it one
    start per row breaks when a row is empty: an empty row's start
    equals the next row's (zero-length segments are illegal -- reduceat
    would read one element), and trailing empty rows carry
    ``start == len(indices)``, out of bounds.  Clamping the starts is
    *not* a fix -- it silently shortens the last non-empty row's
    segment, dropping its final neighbor from the OR-reduction.
    Restricting the starts to non-empty rows makes every segment span
    exactly that row's neighbors (empty rows between two non-empty ones
    share a boundary and vanish); callers scatter the reduction back
    with ``out[rows] = reduceat(...)``.
    """
    rows = np.flatnonzero(deg > 0)
    return rows, indptr[:-1][rows]


def graph_csr(g) -> Tuple[np.ndarray, np.ndarray, List]:
    """CSR adjacency of a networkx graph: ``(indptr, indices, nodes)``.

    ``nodes`` is ``list(g.nodes)`` and row ``i`` belongs to ``nodes[i]``;
    neighbor indices within each row are ascending.  Only the graph's
    *structure* is read (nodes/edges) -- no networkx algorithms run.
    The simulation never needs it (the overlay builds its own CSR); it
    serves the graphs :mod:`repro.theory` and the test oracles generate.
    """
    nodes = list(g.nodes)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    m = g.number_of_edges()
    rows = np.empty(2 * m, dtype=np.int64)
    cols = np.empty(2 * m, dtype=np.int64)
    for e, (u, v) in enumerate(g.edges):
        iu, iv = index[u], index[v]
        rows[2 * e], cols[2 * e] = iu, iv
        rows[2 * e + 1], cols[2 * e + 1] = iv, iu
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, cols, nodes


def component_labels(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    registry: Optional[Registry] = None,
) -> np.ndarray:
    """Connected-component labels by min-label propagation on CSR.

    Returns an int64 ``(n,)`` array where every node carries the minimum
    node id of its component; isolated (or down, i.e. edge-less) nodes
    keep their own id.  Each sweep takes the elementwise minimum over
    every node's neighborhood, then pointer-jumps (``labels[labels]``)
    until a fixpoint -- O(E) numpy work per sweep, a handful of sweeps
    even on path-shaped graphs.
    """
    reg = _registry(registry)
    t0 = perf_counter()
    n = len(indptr) - 1
    labels = np.arange(n, dtype=np.int64)
    if n and len(indices):
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        while True:
            nxt = labels.copy()
            np.minimum.at(nxt, rows, labels[indices])
            # Pointer jumping: chase labels toward their component min.
            while True:
                hop = nxt[nxt]
                if np.array_equal(hop, nxt):
                    break
                nxt = hop
            if np.array_equal(nxt, labels):
                break
            labels = nxt
    reg.counter("graphfast.component_runs", layer="metrics").inc()
    reg.timer("wall", section="graphfast.components").add(perf_counter() - t0)
    return labels


def triangle_counts(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    registry: Optional[Registry] = None,
) -> np.ndarray:
    """Per-node triangle counts (edges among each node's neighbors).

    Vectorized wedge expansion: for every directed edge ``(i, u)``
    gather ``N(u)`` and binary-search each wedge endpoint in the sorted
    packed edge-key array, O(sum deg² · log E) with no per-node python
    loop, blocked to bound scratch memory.
    """
    reg = _registry(registry)
    t0 = perf_counter()
    n = len(indptr) - 1
    m2 = len(indices)  # directed edge count
    out = np.zeros(n, dtype=np.int64)
    if m2:
        deg = np.diff(indptr)
        rows = np.repeat(np.arange(n, dtype=np.int64), deg)
        # CSR rows are ascending, so the packed (row, col) keys are
        # globally sorted: membership is one searchsorted away.
        keys = rows * np.int64(n) + indices
        wedge_counts = deg[indices]
        # Block the expansion so scratch stays ~_TRIANGLE_BLOCK.
        csum = np.cumsum(wedge_counts)
        grand = int(csum[-1])
        marks = np.searchsorted(
            csum, np.arange(_TRIANGLE_BLOCK, grand, _TRIANGLE_BLOCK)
        )
        cuts = np.unique(np.concatenate(([0], marks + 1, [m2])))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            counts = wedge_counts[lo:hi]
            total = int(counts.sum())
            if total == 0:
                continue
            ends = np.cumsum(counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                ends - counts, counts
            )
            # wedge i -- u -- w: expand N(u) for each edge (i, u)
            w = indices[np.repeat(indptr[indices[lo:hi]], counts) + offsets]
            src = np.repeat(rows[lo:hi], counts)
            probe = src * np.int64(n) + w
            at = np.searchsorted(keys, probe)
            at[at == len(keys)] = 0  # any valid slot; equality fails
            closed = keys[at] == probe
            out += np.bincount(src[closed], minlength=n)
        out //= 2
    reg.counter("graphfast.triangle_runs", layer="metrics").inc()
    reg.timer("wall", section="graphfast.triangles").add(perf_counter() - t0)
    return out


def local_clustering(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    registry: Optional[Registry] = None,
) -> np.ndarray:
    """Per-node clustering coefficients ``triangles / (k(k-1)/2)``.

    Nodes with fewer than two neighbors get 0.  Bit-identical to the
    python-loop definition (``real / possible`` with integer-valued
    float operands -- IEEE division is correctly rounded, so equal
    rationals give equal floats) and to ``networkx.clustering``.
    """
    tri = triangle_counts(indptr, indices, registry=registry)
    k = np.diff(indptr).astype(np.float64)
    possible = k * (k - 1.0) / 2.0
    out = np.zeros(len(tri), dtype=np.float64)
    eligible = possible > 0.0
    out[eligible] = tri[eligible].astype(np.float64) / possible[eligible]
    return out


def average_clustering(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    registry: Optional[Registry] = None,
) -> float:
    """Graph-average clustering coefficient (0.0 for an empty graph).

    Accumulates per-node coefficients *sequentially in node order* --
    the same float additions the python-loop oracle performs -- so the
    result matches it (and ``networkx.average_clustering``) exactly.
    """
    n = len(indptr) - 1
    if n == 0:
        return 0.0
    total = 0.0
    for c in local_clustering(indptr, indices, registry=registry):
        total += c
    return total / n


def path_length_sums(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    registry: Optional[Registry] = None,
) -> Tuple[int, int]:
    """``(total_hops, connected_ordered_pairs)`` over all-pairs BFS.

    Distances are integers, so the total is exact no matter the
    summation order; ``total / pairs`` then reproduces the reference
    characteristic-path-length float bit-for-bit.

    Bit-parallel level-synchronous BFS: each chunk of
    :data:`DEFAULT_CHUNK` sources becomes a bit lane in per-node uint64
    words (64 sources per word), and a level step gathers every node's
    neighbor words and OR-reduces them per CSR row
    (``np.bitwise_or.reduceat``) -- one level costs O(E · chunk/64)
    word ops regardless of frontier shape.  Never materializes the
    (n, n) distance matrix: a pair reached at level ``d`` contributes
    ``d`` = the number of levels it spent unreached, so ``sum(dist) =
    sum over levels d of (reached_final - reached_by(d))`` -- one
    popcount of the newly-visited bitset per BFS level is all the
    bookkeeping the sweep needs.
    """
    reg = _registry(registry)
    t0 = perf_counter()
    n = len(indptr) - 1
    total = 0
    pairs = 0
    if n and len(indices):
        deg = np.diff(indptr)
        nz_rows, nz_starts = _nonempty_starts(indptr, deg)
        for lo in range(0, n, DEFAULT_CHUNK):
            block = np.arange(lo, min(lo + DEFAULT_CHUNK, n), dtype=np.int64)
            width = len(block)
            words = (width + 63) // 64
            rows = np.arange(width, dtype=np.int64)
            visited = np.zeros((n, words), dtype=np.uint64)
            lane = np.left_shift(np.uint64(1), (rows % 64).astype(np.uint64))
            visited[block, rows // 64] = lane  # distinct sources: plain store
            frontier = visited.copy()
            counts = [width]  # pairs reached by end of level d
            while True:
                nxt = np.zeros_like(visited)
                nxt[nz_rows] = np.bitwise_or.reduceat(
                    frontier[indices], nz_starts, axis=0
                )
                new = nxt & ~visited
                grew = _popcount(new)
                if grew == 0:
                    break
                visited |= new
                counts.append(counts[-1] + grew)
                frontier = new
            reached = counts[-1]
            total += sum(reached - c for c in counts[:-1])
            pairs += reached - width
    reg.counter("graphfast.bfs_sources", layer="metrics").inc(n)
    reg.timer("wall", section="graphfast.bfs").add(perf_counter() - t0)
    return total, pairs
