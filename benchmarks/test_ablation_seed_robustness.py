"""Ablation: are the headline orderings seed-robust?

Every figure assertion in this suite is a single-seed (or few-seed)
statement.  This bench quantifies robustness: it evaluates the two
headline claims (Basic tops connect traffic; Basic tops ping traffic)
across several seeds and reports the fraction of seeds where each
ordering holds -- the number behind "the results show that the
algorithms achieved their goals".
"""

from repro.experiments import ALGORITHM_ORDER, SweepSpec, ordering_stability, run_sweep
from repro.scenarios import ScenarioConfig

from .conftest import env_duration

SEEDS = tuple(range(5))


def test_headline_orderings_across_seeds(benchmark):
    duration = env_duration(400.0)

    def evaluate():
        points = run_sweep(
            ScenarioConfig(num_nodes=50, duration=duration),
            [SweepSpec("seed", SEEDS), SweepSpec("algorithm", ALGORITHM_ORDER)],
        )
        totals = {(p.point["seed"], p.point["algorithm"]): p.totals for p in points}

        def family(name):
            return lambda seed: {a: totals[seed, a][name] for a in ALGORITHM_ORDER}

        connect = ordering_stability(family("connect"), ("basic", "random", "regular"), SEEDS)
        ping = ordering_stability(family("ping"), ("basic", "regular"), SEEDS)
        return connect, ping

    connect, ping = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print(f"\nconnect ordering basic>=random>=regular: "
          f"holds in {connect['fraction_holds']:.0%} of {int(connect['n'])} seeds "
          f"(pairs: {connect['per_pair']})")
    print(f"ping ordering basic>=regular: "
          f"holds in {ping['fraction_holds']:.0%} of {int(ping['n'])} seeds")
    # The headline claims must hold in a clear majority of seeds.
    assert connect["per_pair"]["basic>=random"] >= 0.6
    assert connect["per_pair"]["random>=regular"] >= 0.6
    assert ping["fraction_holds"] >= 0.8
