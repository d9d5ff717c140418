"""Ablation: effects of mobility (§8 future work).

Runs the Regular algorithm under the four mobility models (static,
waypoint, random direction, Gauss-Markov) and reports reconfiguration
cost vs service quality.  Expectation: the static network pays the
least maintenance (connections never break by distance) and mobility
increases connect traffic.
"""

from repro.experiments import SweepSpec, run_sweep
from repro.scenarios import ScenarioConfig

from .conftest import env_duration

MODELS = ("static", "waypoint", "direction", "gauss-markov")


def test_mobility_sweep(benchmark):
    duration = env_duration(500.0)

    def sweep():
        points = run_sweep(
            ScenarioConfig(num_nodes=50, duration=duration, algorithm="regular", seed=91),
            [SweepSpec("mobility", MODELS)],
        )
        return [
            {
                "model": model,
                "connect": p.totals["connect"],
                "ping": p.totals["ping"],
                "answer_rate": p.answer_rate,
                "degree": p.mean_degree,
            }
            for model, p in zip(MODELS, points)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for r in rows:
        print(
            f"{r['model']:>13}: connect={r['connect']:6.0f} ping={r['ping']:5.0f} "
            f"degree={r['degree']:.2f} answer_rate={r['answer_rate']:.2f}"
        )
    by_model = {r["model"]: r for r in rows}
    # A static network, once configured, stops paying discovery costs.
    moving = min(by_model[m]["connect"] for m in MODELS if m != "static")
    assert by_model["static"]["connect"] <= moving * 1.5
    # Every model still delivers answers.
    assert all(r["answer_rate"] > 0 for r in rows)
