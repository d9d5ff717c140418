"""Ablation: AODV vs the oracle router.

Validates the substitution DESIGN.md §4 makes for large sweeps: the
oracle (instant global shortest paths, zero control traffic) is the
idealized limit of AODV.  Overlay-level results must agree closely --
if they did not, benches run on the oracle would be meaningless -- and
the oracle must be substantially cheaper in kernel events.
"""

from repro.experiments import SweepSpec, run_sweep
from repro.scenarios import ScenarioConfig

from .conftest import env_duration


def test_oracle_approximates_aodv(benchmark):
    duration = env_duration(600.0)

    def run_both():
        return run_sweep(
            ScenarioConfig(num_nodes=50, duration=duration, algorithm="regular", seed=71),
            [SweepSpec("routing", ("aodv", "oracle"))],
        )

    aodv, oracle = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(
        f"\nevents: aodv={aodv.events:.0f}, oracle={oracle.events:.0f} "
        f"({aodv.events / max(oracle.events, 1):.1f}x)"
    )
    print(f"overlay degree: aodv={aodv.mean_degree:.2f}, oracle={oracle.mean_degree:.2f}")
    print(
        f"connect totals: aodv={aodv.totals['connect']:.0f}, "
        f"oracle={oracle.totals['connect']:.0f}"
    )
    # The oracle is cheaper...
    assert oracle.events < aodv.events
    # ...and overlay-level outcomes land in the same band (within 2x --
    # AODV discovery latency loses some handshakes the oracle wins).
    da, do = aodv.mean_degree, oracle.mean_degree
    assert 0.5 <= (da / max(do, 1e-9)) <= 2.0
    ca, co = aodv.totals["connect"], oracle.totals["connect"]
    assert 0.4 <= (ca / max(co, 1)) <= 2.5
