"""Ablation: the p2p membership fraction (the paper fixes 75 %).

Non-members still forward ad-hoc traffic but hold no files and answer
no queries.  Sweeping the fraction shows how much of the paper's result
rides on the 75 % choice: more members = more holders = better answer
rates on the same physical network.
"""

from repro.experiments import ExperimentExecutor
from repro.scenarios import ScenarioConfig

from .conftest import env_duration

FRACTIONS = (0.5, 0.75, 1.0)


def test_membership_fraction_sweep(benchmark):
    duration = env_duration(500.0)

    def sweep():
        runs = ExperimentExecutor().run_configs(
            [
                ScenarioConfig(
                    num_nodes=50,
                    duration=duration,
                    algorithm="regular",
                    p2p_fraction=frac,
                    seed=161,
                )
                for frac in FRACTIONS
            ]
        )
        rows = []
        for frac, res in zip(FRACTIONS, runs):
            answered = sum(s.answered for s in res.file_stats)
            total = sum(s.queries for s in res.file_stats)
            rows.append(
                {
                    "fraction": frac,
                    "members": len(res.members),
                    "answer_rate": answered / total if total else 0.0,
                    "degree": res.overlay_stats["mean_degree"],
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for r in rows:
        print(
            f"fraction={r['fraction']:.2f} members={r['members']:3d} "
            f"degree={r['degree']:.2f} answer_rate={r['answer_rate']:.2f}"
        )
    assert rows[0]["members"] < rows[1]["members"] < rows[2]["members"]
    # A fuller overlay on the same radios finds content at least as well.
    assert rows[-1]["answer_rate"] >= rows[0]["answer_rate"] * 0.9
    assert rows[-1]["degree"] >= rows[0]["degree"]