"""Ablation: do Random's long-range links buy small-world structure?

§8 of the paper: no small-world manifestation was detectable at n=50,
possibly because n is not much larger than MAXNCONN, and because the
random connections break before they help; the authors defer denser
scenarios to future work.  This bench IS that future-work experiment:
a denser, static scenario (no mobility, so random links survive) where
we compare the Regular and Random overlays' clustering coefficient and
characteristic path length.
"""

import numpy as np

from repro.core import P2pConfig
from repro.experiments import ExperimentExecutor
from repro.scenarios import ScenarioConfig

from .conftest import env_duration, env_reps


def test_random_links_shorten_paths(benchmark):
    duration = env_duration(600.0)
    reps = env_reps(1)

    def run_both():
        algs = ("regular", "random")
        base = ScenarioConfig(
            num_nodes=120,
            p2p_fraction=1.0,
            area_width=120.0,
            area_height=120.0,
            mobility="static",  # links survive: small-world gets a chance
            duration=duration,
            seed=51,
            queries=False,
            p2p=P2pConfig(max_connections=4),
        )
        runs = ExperimentExecutor().run_configs(
            [base.with_(algorithm=alg).for_repetition(r) for alg in algs for r in range(reps)]
        )
        return {
            alg: [res.overlay_stats for res in runs[i * reps : (i + 1) * reps]]
            for i, alg in enumerate(algs)
        }

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    summary = {}
    for alg, stats in out.items():
        cl = float(np.nanmean([s["clustering"] for s in stats]))
        pl = float(np.nanmean([s["path_length"] for s in stats]))
        summary[alg] = (cl, pl)
        print(f"\n{alg}: clustering={cl:.3f}, path_length={pl:.2f}")
    # The Watts-Strogatz prediction: the rewired (Random) overlay has a
    # path length no worse than Regular's (long links act as bridges).
    assert summary["random"][1] <= summary["regular"][1] * 1.10
