"""Ablation: connection lifetimes -- testing the paper's §7.4 conjecture.

"Another explanation would be that, due to the dynamics of the network,
the random connections go down before the nodes could benefit from
them."  The authors could only conjecture this; our harness records the
lifetime of every closed connection, so we can test it: under the
Random algorithm with paper-default mobility, long-range random links
must die younger than regular links.
"""

from repro.experiments import ExperimentExecutor
from repro.scenarios import ScenarioConfig

from .conftest import env_duration


def test_random_links_die_younger(benchmark):
    duration = env_duration(900.0)

    def run():
        res = ExperimentExecutor().run_config(
            ScenarioConfig(
                num_nodes=50,
                duration=duration,
                algorithm="random",
                seed=121,
                queries=False,
            )
        )
        return res.connection_lifetimes

    lifetimes = benchmark.pedantic(run, rounds=1, iterations=1)
    reg, rnd = lifetimes["regular"], lifetimes["random"]
    print(
        f"\nregular links: n={reg['count']:.0f} mean={reg['mean']:.1f}s "
        f"median={reg['median']:.1f}s"
    )
    print(
        f"random  links: n={rnd['count']:.0f} mean={rnd['mean']:.1f}s "
        f"median={rnd['median']:.1f}s"
    )
    assert rnd["count"] > 0 and reg["count"] > 0, "need both link classes"
    # The paper's conjecture, now measured: long-range links are more
    # fragile under mobility.
    assert rnd["mean"] < reg["mean"], (
        "random connections should die younger than regular ones"
    )
