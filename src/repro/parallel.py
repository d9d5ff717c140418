"""Shared process-pool sizing helpers.

The experiment orchestrator (:mod:`repro.experiments.sweeps` and the
executor behind ``reproduce``, one run per task) fans work out over a
``ProcessPoolExecutor``; this module is the single definition of the
``--processes`` flag semantics and the chunking policy, so the CLI
knobs behave identically everywhere.

Nothing here creates a pool or touches simulation state -- these are
pure sizing functions, trivially unit-testable.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["resolve_processes", "default_chunksize"]


def resolve_processes(processes: Optional[int] = None) -> int:
    """Worker count for a ``--processes``-style knob.

    ``None`` means "use every core" (``os.cpu_count()``, floor 1);
    explicit values must be >= 1.  Every pool in the package sizes
    itself through this one function so the flag means the same thing
    on ``sweep`` and on ``reproduce``.
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

