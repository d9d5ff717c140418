"""Zipf file placement and per-servent file stores.

The paper distributes ``num_files`` distinct searchable files so that
the most popular file is present on ``max_freq`` (40 %) of all p2p
nodes, the second on ``max_freq / 2``, the k-th on ``max_freq / k`` --
a Zipf law with exponent 1 scaled to ``max_freq``.

File ids are 1-based (file 1 is the most popular), matching the x-axis
of the paper's Figures 5 and 6.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

import numpy as np

__all__ = ["zipf_frequencies", "place_files", "FileStore"]


def zipf_frequencies(num_files: int, max_freq: float) -> np.ndarray:
    """Presence frequency of each file: ``max_freq / rank``.

    Returns an array of length ``num_files`` indexed by ``rank-1``.
    """
    if num_files < 1:
        raise ValueError(f"num_files must be >= 1, got {num_files}")
    if not 0 < max_freq <= 1:
        raise ValueError(f"max_freq must be in (0, 1], got {max_freq}")
    ranks = np.arange(1, num_files + 1, dtype=float)
    return max_freq / ranks


def place_files(
    members: Sequence[int],
    num_files: int,
    max_freq: float,
    rng: np.random.Generator,
) -> Dict[int, Set[int]]:
    """Assign files to p2p members following the Zipf presence law.

    File ``k`` is placed on ``round(max_freq / k * len(members))`` nodes
    chosen uniformly at random without replacement (at least one node,
    so every file is findable somewhere).

    Returns a mapping node id -> set of file ids held.
    """
    members = list(members)
    if not members:
        raise ValueError("need at least one p2p member")
    freqs = zipf_frequencies(num_files, max_freq)
    holdings: Dict[int, Set[int]] = {m: set() for m in members}
    n = len(members)
    for rank, f in enumerate(freqs, start=1):
        count = max(1, int(round(f * n)))
        chosen = rng.choice(n, size=min(count, n), replace=False)
        for idx in chosen:
            holdings[members[int(idx)]].add(rank)
    return holdings


class FileStore:
    """The files one servent shares."""

    __slots__ = ("owner", "_files")

    def __init__(self, owner: int, files: Set[int] | None = None) -> None:
        self.owner = owner
        self._files: Set[int] = set(files) if files else set()

    def has(self, file_id: int) -> bool:
        return file_id in self._files

    def add(self, file_id: int) -> None:
        self._files.add(file_id)

    def __len__(self) -> int:
        return len(self._files)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FileStore node={self.owner} files={sorted(self._files)}>"
