"""Ring lattices and Watts-Strogatz rewiring, implemented from scratch.

§6.1.2 of the paper grounds the Random algorithm in the small-world
model: "little changes in regular graphs connections are sufficient to
achieve short global pathlengths as in random graphs".  §8 promises "a
theoretical study on how the connectivity of nodes influences our
metrics and how small-world properties could be better used".  This
module provides the graph machinery for that study; the companion
:mod:`repro.theory.predictions` provides the closed-form reference
values, and :mod:`repro.theory.study` runs the classic rewiring sweep.

Every graph is a CSR adjacency ``(indptr, indices)`` -- row ``u`` holds
node ``u``'s neighbours ascending -- the arrays the
:mod:`repro.metrics.graphfast` kernels read.  Tests cross-check the
graphs against a networkx formulation.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

__all__ = ["watts_strogatz"]


def _lattice_rows(n: int, k: int) -> List[Set[int]]:
    if k % 2 != 0:
        raise ValueError(f"k must be even, got {k}")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    half = k // 2
    return [{(u + j) % n for j in range(-half, half + 1) if j} for u in range(n)]


def _csr(rows: List[Set[int]]) -> Tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.fromiter(
        (v for row in rows for v in sorted(row)), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, indices


def watts_strogatz(
    n: int, k: int, p: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Ring lattice + rewiring, as CSR (the classic WS ensemble).

    The lattice joins each of ``n`` vertices to its ``k`` nearest
    neighbours, ``k/2`` on each side (``k`` even, ``0 < k < n``).  Each
    lattice edge ``(u, v)`` is, with probability ``p``, re-attached
    at its ``v`` end to a uniformly chosen new vertex (no self loops, no
    duplicate edges).  Edges are visited per ``u`` ascending, first
    ``u+1 .. u+k/2`` below ``n``, then the ones that wrap round
    (``n-k/2+u .. n-1`` when ``u < k/2``); each draws ``rng.random()``
    and each rewired one ``rng.integers`` over its candidates.
    """
    rows = _lattice_rows(n, k)
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    half = k // 2
    for u in range(n):
        for v in [*range(u + 1, min(u + half + 1, n)), *range(n - half + u, n)]:
            if rng.random() >= p:
                continue
            row = rows[u]
            candidates = [w for w in range(n) if w != u and w not in row]
            if not candidates:
                continue
            w = candidates[int(rng.integers(len(candidates)))]
            row.discard(v)
            rows[v].discard(u)
            row.add(w)
            rows[w].add(u)
    return _csr(rows)
