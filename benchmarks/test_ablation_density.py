"""Ablation: node-density sweep (paper §8 future work).

"We are most interested in analyzing the effects of ... density of
nodes".  Sweeps the population on the fixed 100 m x 100 m area with the
Regular algorithm and reports overlay degree, query answer rate and
per-node traffic.  Expectation: a denser network finds files more often
(more holders in TTL range) and builds a better-connected overlay.
"""

from repro.experiments import SweepSpec, run_sweep
from repro.scenarios import ScenarioConfig

from .conftest import env_duration

DENSITIES = (30, 60, 90)


def test_density_sweep(benchmark):
    duration = env_duration(500.0)

    def sweep():
        base = ScenarioConfig(duration=duration, algorithm="regular", seed=61)
        points = run_sweep(base, [SweepSpec("num_nodes", DENSITIES)])
        return [
            {
                "nodes": n,
                "mean_degree": p.mean_degree,
                "answer_rate": p.answer_rate,
                "connect_per_member": p.totals["connect"]
                / base.with_(num_nodes=n).num_members,
            }
            for n, p in zip(DENSITIES, points)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for r in rows:
        print(
            f"n={r['nodes']:3d}  degree={r['mean_degree']:.2f}  "
            f"answer_rate={r['answer_rate']:.2f}  connect/member={r['connect_per_member']:.0f}"
        )
    degrees = [r["mean_degree"] for r in rows]
    rates = [r["answer_rate"] for r in rows]
    assert degrees[-1] > degrees[0], "denser network should build a denser overlay"
    assert rates[-1] > rates[0], "denser network should answer more queries"
