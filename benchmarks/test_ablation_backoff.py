"""Ablation: exponential retry back-off (Regular improvement #4).

Compares the Regular algorithm as published (timer doubles up to
MAXTIMER after every fruitless nhops cycle) against a variant with the
back-off disabled (MAXTIMER == TIMER_INITIAL, i.e. fixed retry rate).
The paper's claim: back-off "diminishes the overall traffic" when
connecting is hard.  We use a sparse scenario (few members, so most
discovery cycles fail) where the effect is pronounced.
"""

from repro.core import P2pConfig
from repro.experiments import ExperimentExecutor
from repro.scenarios import ScenarioConfig

from .conftest import env_duration


def _config(max_timer: float, duration: float) -> ScenarioConfig:
    return ScenarioConfig(
        num_nodes=30,  # sparse: hard to fill MAXNCONN
        duration=duration,
        algorithm="regular",
        seed=21,
        queries=False,
        p2p=P2pConfig(timer_initial=10.0, max_timer=max_timer),
    )


def test_backoff_reduces_connect_traffic(benchmark):
    duration = env_duration(900.0)

    def run_both():
        return ExperimentExecutor().run_configs(
            [_config(max_timer, duration) for max_timer in (160.0, 10.0)]
        )

    with_backoff, without = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(
        f"\nconnect messages: back-off={with_backoff.totals['connect']}, "
        f"fixed-timer={without.totals['connect']}"
    )
    assert with_backoff.totals["connect"] < without.totals["connect"], (
        "exponential back-off should reduce connect traffic in sparse scenarios"
    )
    # And it must not cripple the overlay: a similar number of
    # connections still forms (within a 2x band).
    deg_b = with_backoff.overlay_stats["mean_degree"]
    deg_f = without.overlay_stats["mean_degree"]
    print(f"mean overlay degree: back-off={deg_b:.2f}, fixed={deg_f:.2f}")
    assert deg_b >= 0.4 * deg_f
