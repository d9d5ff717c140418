"""Bench: Figures 5-12 -- one ``reproduce_all`` pass over the eight figures.

The figures' runs are planned by ``figure_configs`` and executed as one
deduplicated ``ExperimentExecutor`` batch: figures 5/7/9/11 harvest the
same 50-node runs and 6/8/10/12 the same 150-node runs, so every run
executes once.  Settings are ``DEFAULT_FIGURE_SETTINGS`` unless the
``REPRO_BENCH_*`` knobs (see benchmarks/conftest.py) override them.
Prints each figure's series and its paper comparison, and asserts the
claims each figure must reproduce.
"""

from repro.experiments import (
    ExperimentExecutor,
    compare_with_paper,
    render_figure,
    render_paper_comparison,
    reproduce_all,
)
from repro.obs.registry import Registry

from .conftest import env_duration, env_reps

#: paper claims (exact ids) each figure must agree with; the others are
#: printed only
REQUIRED_CHECKS = {
    "fig5": (),
    "fig6": (),
    "fig7": (
        "basic generates the most connect traffic",
        "random sits above regular (long-range TTLs)",
    ),
    "fig8": ("basic generates the most connect traffic",),
    "fig9": ("basic generates the most ping traffic (2x effect)",),
    "fig10": ("basic generates the most ping traffic (2x effect)",),
    "fig11": (),
    "fig12": (),
}


def test_figures(benchmark, tmp_path):
    executor = ExperimentExecutor(registry=Registry())
    results = benchmark.pedantic(
        lambda: reproduce_all(
            str(tmp_path),
            figures=list(REQUIRED_CHECKS),
            duration=env_duration(None),
            reps=env_reps(None),
            executor=executor,
        ),
        rounds=1,
        iterations=1,
    )
    stats = executor.stats()
    print(
        f"\n{stats['jobs_executed']:g} runs executed, "
        f"{stats['jobs_deduped']:g} deduplicated"
    )
    # Four figures share every run.
    assert stats["jobs_deduped"] == 3 * stats["jobs_executed"]
    for exp_id, required in REQUIRED_CHECKS.items():
        result = results[exp_id]
        print(render_figure(result))
        print(render_paper_comparison(result))
        rows = {row["claim"]: row for row in compare_with_paper(result)}
        for claim in required:
            row = rows[claim]
            assert row["holds"], f"{exp_id}: paper claim failed: {claim} ({row['measured']})"
