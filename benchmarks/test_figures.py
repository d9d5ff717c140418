"""Bench: Figures 5-12 -- one ``reproduce_all`` pass over the eight figures.

The figures' runs are planned by ``figure_configs`` and executed as one
deduplicated ``ExperimentExecutor`` batch: figures 5/7/9/11 harvest the
same 50-node runs and 6/8/10/12 the same 150-node runs, so every run
executes once.  Settings are ``DEFAULT_FIGURE_SETTINGS`` unless the
``REPRO_BENCH_*`` knobs (see benchmarks/conftest.py) override them.
Prints each figure's series and asserts its qualitative shape.
"""

from repro.experiments import (
    ExperimentExecutor,
    render_checks,
    render_figure,
    reproduce_all,
    shape_checks,
)
from repro.obs.registry import Registry

from .conftest import env_duration, env_reps

#: shape checks each figure must pass (the others are printed only)
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
        print(render_checks(result))
        checks = {name: (holds, detail) for name, holds, detail in shape_checks(result)}
        for name in required:
            holds, detail = checks[name]
            assert holds, f"{exp_id}: shape expectation failed: {name} ({detail})"
