"""Ablation: load distribution across nodes (§7.4's central argument).

The paper argues in prose that Regular/Random spread the maintenance
work evenly (good for homogeneous networks) while Hybrid deliberately
concentrates it on masters (good for heterogeneous networks).  The Gini
coefficient of the per-node ping load turns that prose into a number:
Hybrid's ping Gini must exceed Regular's, and Regular/Random must be
relatively even.
"""

from repro.experiments import ALGORITHM_ORDER, ExperimentExecutor
from repro.scenarios import ScenarioConfig

from .conftest import env_duration


def test_ping_load_gini_by_algorithm(benchmark):
    duration = env_duration(700.0)

    def sweep():
        runs = ExperimentExecutor().run_configs(
            [
                ScenarioConfig(num_nodes=50, duration=duration, algorithm=alg, seed=111)
                for alg in ALGORITHM_ORDER
            ]
        )
        return {
            alg: {
                "gini": res.balance["ping"]["gini"],
                "jain": res.balance["ping"]["jain"],
                "max_share": res.balance["ping"]["max_share"],
            }
            for alg, res in zip(ALGORITHM_ORDER, runs)
        }

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for alg, b in out.items():
        print(
            f"{alg:>8}: ping gini={b['gini']:.3f} jain={b['jain']:.3f} "
            f"max-node share={b['max_share']:.3f}"
        )
    # Hybrid concentrates keep-alive work on masters.
    assert out["hybrid"]["gini"] > out["regular"]["gini"]
    # Regular and Random stay comparably even (within a band).
    assert abs(out["regular"]["gini"] - out["random"]["gini"]) < 0.25
