"""One-call reproduction of the paper's entire evaluation.

:func:`reproduce_all` runs Tables 1-2 and Figures 5-12, writes every
result to an output directory (text report + JSON + CSV per figure,
plus a summary with the paper-claim verdicts), and returns the results
in memory.  The CLI exposes it as ``p2p-manet reproduce``.

Since the experiment-orchestration plane landed, the evaluation is
planned as **one deduplicated batch**: the configs of every requested
figure are flattened into a unit-of-work list, identical runs
requested by different figures (figures 5/7/9/11 share theirs, as do
6/8/10/12) execute once, the batch optionally fans out over worker
processes and/or memoizes through a
:class:`~repro.experiments.cache.RunCache` -- so a warm re-reproduce
is nearly free and an interrupted evaluation resumes where it died --
and each figure then harvests from the memoized results.  Cached,
parallel and serial lanes produce byte-identical figure JSON.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Union

from .cache import RunCache
from .executor import ExperimentExecutor
from .export import figure_result_to_csv, figure_result_to_json
from .figures import FigureResult, figure_configs, run_figure
from .paper_values import compare_with_paper
from .report import (
    render_figure,
    render_paper_comparison,
    render_table,
)
from .storage import ResultStore
from .tables import table1_rows, table2_rows

__all__ = ["reproduce_all", "DEFAULT_FIGURE_SETTINGS"]

#: laptop-scale defaults per figure: (duration seconds, repetitions)
DEFAULT_FIGURE_SETTINGS: Dict[str, tuple] = {
    "fig5": (400.0, 2),
    "fig6": (240.0, 1),
    "fig7": (400.0, 2),
    "fig8": (240.0, 1),
    "fig9": (400.0, 2),
    "fig10": (240.0, 1),
    "fig11": (400.0, 2),
    "fig12": (240.0, 1),
}


def reproduce_all(
    out_dir: str,
    *,
    figures: Optional[Sequence[str]] = None,
    duration: Optional[float] = None,
    reps: Optional[int] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    processes: Optional[int] = None,
    cache: Optional[Union[RunCache, ResultStore, str]] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> Dict[str, FigureResult]:
    """Run the full evaluation and write artifacts under ``out_dir``.

    Parameters
    ----------
    out_dir:
        Created if missing.  Gets ``tables.txt``, per-figure
        ``<fig>.txt`` / ``<fig>.json`` / ``<fig>.csv``, and
        ``SUMMARY.md``.
    figures:
        Subset to run (default: all eight).
    duration, reps:
        Override every figure's settings (default: per-figure
        laptop-scale values; the paper scale is 3600 / 33).
    processes:
        Worker processes for the deduplicated run batch (None/1:
        in-process; 0: every core).  Results are byte-identical to the
        serial lane.
    cache:
        Optional :class:`RunCache` (or a store / ndjson path): every
        completed run is memoized, already-memoized runs are O(1)
        lookups, and an interrupted evaluation resumes where it died.
    executor:
        Bring-your-own :class:`ExperimentExecutor` (overrides
        ``processes`` / ``cache``); used by the benches to read the
        orchestration counters afterwards.
    """
    wanted = list(figures) if figures is not None else list(DEFAULT_FIGURE_SETTINGS)
    unknown = [f for f in wanted if f not in DEFAULT_FIGURE_SETTINGS]
    if unknown:
        raise ValueError(f"unknown figures: {unknown}")
    os.makedirs(out_dir, exist_ok=True)
    say = progress if progress is not None else (lambda s: None)
    if executor is None:
        executor = ExperimentExecutor(processes=processes, cache=cache)

    tables_txt = (
        render_table(table1_rows(), title="Table 1. Topologies and their characteristics.")
        + "\n\n"
        + render_table(table2_rows(), title="Table 2. Parameters used and their typical values.")
        + "\n"
    )
    with open(os.path.join(out_dir, "tables.txt"), "w") as fh:
        fh.write(tables_txt)
    say("tables written")

    def settings(exp_id: str) -> Dict[str, float]:
        d, r = DEFAULT_FIGURE_SETTINGS[exp_id]
        return {
            "duration": duration if duration is not None else d,
            "reps": reps if reps is not None else r,
            "seed": seed,
        }

    # One flattened, deduplicated batch for every figure: figs sharing a
    # scenario (5/7/9/11 and 6/8/10/12 at equal settings) run it once.
    batch = [c for exp_id in wanted for c in figure_configs(exp_id, **settings(exp_id))]
    say(f"planning {len(batch)} runs across {len(wanted)} figures...")
    executor.run_configs(batch)
    stats = executor.stats()
    say(
        "batch done: {0:g} executed, {1:g} deduped, {2:g} cache hits".format(
            stats["jobs_executed"],
            stats["jobs_deduped"],
            stats.get("cache_hits", 0.0),
        )
    )

    results: Dict[str, FigureResult] = {}
    summary: List[str] = ["# Reproduction summary", ""]
    agree = differ = 0
    for exp_id in wanted:
        s = settings(exp_id)
        d, r = s["duration"], int(s["reps"])
        say(f"harvesting {exp_id} ({d:g}s x {r})...")
        result = run_figure(exp_id, duration=d, reps=r, seed=seed, executor=executor)
        results[exp_id] = result
        with open(os.path.join(out_dir, f"{exp_id}.txt"), "w") as fh:
            fh.write(render_figure(result) + "\n\n" + render_paper_comparison(result) + "\n")
        with open(os.path.join(out_dir, f"{exp_id}.json"), "w") as fh:
            fh.write(figure_result_to_json(result))
        with open(os.path.join(out_dir, f"{exp_id}.csv"), "w") as fh:
            fh.write(figure_result_to_csv(result))
        rows = compare_with_paper(result)
        for row in rows:
            if row["holds"] is True:
                agree += 1
            elif row["holds"] is False:
                differ += 1
        verdicts = ", ".join(
            ("OK" if row["holds"] else "DIFFERS") if row["holds"] is not None else "n/a"
            for row in rows
        )
        summary.append(f"* **{exp_id}** ({d:g}s x {r}): {verdicts}")
        say(f"{exp_id} done")

    summary += [
        "",
        f"paper claims checked: {agree + differ}, agreeing: {agree}, differing: {differ}",
        "",
        "Artifacts: tables.txt, <fig>.txt/json/csv per figure.",
    ]
    with open(os.path.join(out_dir, "SUMMARY.md"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    say("summary written")
    return results
