"""Ablation: expanding-ring discovery (Regular improvement #1).

The Regular algorithm grows its discovery radius 2 -> 4 -> 6; the Basic
baseline always broadcasts at the full NHOPS = 6.  This ablation
isolates the ring by comparing Regular as published against Regular
forced to start at the maximum radius (nhops_initial = max_nhops = 6),
with everything else identical (handshake, back-off, one-sided ping).
"""

from repro.core import P2pConfig
from repro.experiments import ExperimentExecutor
from repro.scenarios import ScenarioConfig

from .conftest import env_duration


def test_expanding_ring_reduces_flood_traffic(benchmark):
    duration = env_duration(900.0)

    def run_both():
        labels = {"ring": 2, "fixed6": 6}
        configs = [
            ScenarioConfig(
                num_nodes=50,
                duration=duration,
                algorithm="regular",
                seed=41,
                queries=False,
                p2p=P2pConfig(nhops_initial=nhops_initial),
            )
            for nhops_initial in labels.values()
        ]
        return dict(zip(labels, ExperimentExecutor().run_configs(configs)))

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    ring, fixed = out["ring"].totals["connect"], out["fixed6"].totals["connect"]
    print(f"\nconnect messages: expanding ring={ring}, fixed radius 6={fixed}")
    deg_r = out["ring"].overlay_stats["mean_degree"]
    deg_f = out["fixed6"].overlay_stats["mean_degree"]
    print(f"mean overlay degree: ring={deg_r:.2f}, fixed={deg_f:.2f}")
    assert ring < fixed, "expanding ring should reduce discovery traffic"
    assert deg_r >= 0.5 * deg_f, "the ring must still build a comparable overlay"
