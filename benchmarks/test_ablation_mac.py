"""Ablation: does the collision-free substitution change the results?

DESIGN.md §4 replaces the paper's 802.11 stack with an ideal channel
and argues the compared effects (figure orderings) don't depend on MAC
contention.  This bench runs the Figure-7/9 workload on both the ideal
channel and the CSMA contention MAC and asserts the orderings survive.
"""

from repro.experiments import ALGORITHM_ORDER, SweepSpec, run_sweep
from repro.scenarios import ScenarioConfig

from .conftest import env_duration

MACS = ("ideal", "csma")


def test_orderings_survive_contention(benchmark):
    duration = env_duration(400.0)

    def both():
        points = run_sweep(
            ScenarioConfig(num_nodes=50, duration=duration, seed=141),
            [SweepSpec("mac", MACS), SweepSpec("algorithm", ALGORITHM_ORDER)],
        )
        out = {mac: {} for mac in MACS}
        for p in points:
            out[p.point["mac"]][p.point["algorithm"]] = {
                "connect": p.totals["connect"],
                "ping": p.totals["ping"],
                "degree": p.mean_degree,
            }
        return out

    out = benchmark.pedantic(both, rounds=1, iterations=1)
    print()
    for mac, rows in out.items():
        print(f"--- {mac} ---")
        for alg, r in rows.items():
            print(
                f"  {alg:>8}: connect={r['connect']:6.0f} ping={r['ping']:5.0f} "
                f"degree={r['degree']:.2f}"
            )
    for mac in MACS:
        rows = out[mac]
        # The paper's orderings hold on BOTH channels:
        assert rows["basic"]["connect"] > rows["regular"]["connect"], mac
        assert rows["random"]["connect"] > rows["regular"]["connect"], mac
        assert rows["basic"]["ping"] >= max(
            rows["regular"]["ping"], rows["random"]["ping"], rows["hybrid"]["ping"]
        ), mac
        # and the overlay still forms under contention
        assert rows["basic"]["degree"] > 0.2, mac
