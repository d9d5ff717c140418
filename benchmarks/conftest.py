"""Shared benchmark configuration.

Every bench regenerates one paper table/figure (or an ablation) at a
scaled-down horizon and prints the same rows/series the paper reports.
Scale knobs come from environment variables so the full paper-scale
evaluation is one command away:

* ``REPRO_BENCH_DURATION``  -- seconds per run (default: bench-specific;
  the figures use ``DEFAULT_FIGURE_SETTINGS``; paper: 3600)
* ``REPRO_BENCH_REPS``      -- repetitions (default 1-2; paper: 33)

e.g. ``REPRO_BENCH_DURATION=3600 REPRO_BENCH_REPS=33 pytest benchmarks/``.
"""

import os
from typing import Optional


def env_duration(default: Optional[float]) -> Optional[float]:
    value = os.environ.get("REPRO_BENCH_DURATION")
    return float(value) if value is not None else default


def env_reps(default: Optional[int]) -> Optional[int]:
    value = os.environ.get("REPRO_BENCH_REPS")
    return int(value) if value is not None else default
