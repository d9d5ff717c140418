"""Ablation: one-sided ping on symmetric connections (improvement #3).

The paper: "the number of pings and pongs was cut half because only one
vertex checks the connection actively".  We compare the per-connection
keep-alive traffic of Regular (one side pings) against Basic (each
endpoint maintains its own asymmetric reference, so mutual references
are pinged from both sides).
"""

from repro.experiments import ExperimentExecutor
from repro.scenarios import ScenarioConfig

from .conftest import env_duration


def test_one_sided_ping_halves_keepalive_traffic(benchmark):
    duration = env_duration(900.0)

    def run_both():
        algs = ("basic", "regular")
        runs = ExperimentExecutor().run_configs(
            [
                ScenarioConfig(
                    num_nodes=50, duration=duration, algorithm=alg, seed=31, queries=False
                )
                for alg in algs
            ]
        )
        out = {}
        for alg, res in zip(algs, runs):
            # Normalize by the overlay size actually built: pings per
            # connection-second is the honest comparison.
            edges = max(res.overlay_stats["mean_degree"] * len(res.members) / 2, 1e-9)
            out[alg] = (res.totals["ping"], edges, res.totals["ping"] / edges)
        return out

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    for alg, (total, edges, per_edge) in out.items():
        print(f"\n{alg}: pings={total}, overlay edges~{edges:.1f}, pings/edge={per_edge:.1f}")
    # Basic's per-edge keep-alive traffic must be clearly heavier
    # (paper: about 2x; we allow >= 1.4x for run-to-run noise).
    assert out["basic"][2] >= 1.4 * out["regular"][2]
