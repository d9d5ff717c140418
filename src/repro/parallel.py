"""Shared process-pool sizing helpers.

The experiment executor (behind ``sweep`` and ``reproduce``, one run
per task) fans work out over a ``ProcessPoolExecutor``.  Its
``--processes`` flag means the same on both commands: unset or ``1``
runs every job in-process, ``n > 1`` uses ``n`` workers, and ``0``
uses every core (:func:`resolve_processes`).  This module holds the
core count and the chunking policy behind that flag.

Nothing here creates a pool or touches simulation state -- these are
pure sizing functions, trivially unit-testable.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["resolve_processes", "default_chunksize"]


def resolve_processes(processes: Optional[int] = None) -> int:
    """Worker count of a pool: ``processes``, or every core for ``None``.

    ``None`` resolves to ``os.cpu_count()`` (floor 1); explicit values
    must be >= 1.  The executor calls it as ``resolve_processes(None)``
    for ``--processes 0``; an unset ``--processes`` never gets here,
    it runs in-process.
    """
    if processes is None:
        return max(1, os.cpu_count() or 1)
    p = int(processes)
    if p < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    return p


def default_chunksize(n_jobs: int, processes: int) -> int:
    """Tasks submitted per worker round trip: ``ceil(n/4p)`` capped at 32.

    Large job lists amortize pickling instead of shipping one task at a
    time, while ~4 rounds per worker keep the tail load-balanced.  This
    is the sweep runner's historical policy.
    """
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    return max(1, min(32, -(-n_jobs // (4 * max(1, processes)))))

