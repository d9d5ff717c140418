"""Ablation: routing protocols under a p2p workload (the paper's [13]).

The paper justifies AODV by citing Oliveira et al.'s comparison of
ad-hoc routing protocols under a peer-to-peer application, which found
on-demand protocols strongest in high-mobility scenarios.  This bench
re-runs that comparison on our substrate: the Regular algorithm's full
workload over AODV, DSDV, DSR and the oracle, reporting overlay health,
query service and ad-hoc-level cost (kernel events as the proxy).
"""

from repro.experiments import SweepSpec, run_sweep
from repro.scenarios import ScenarioConfig

from .conftest import env_duration

PROTOCOLS = ("aodv", "dsdv", "dsr", "oracle")


def test_routing_protocol_comparison(benchmark):
    duration = env_duration(500.0)

    def sweep():
        points = run_sweep(
            ScenarioConfig(num_nodes=50, duration=duration, algorithm="regular", seed=101),
            [SweepSpec("routing", PROTOCOLS)],
        )
        return {
            routing: {
                "degree": p.mean_degree,
                "answer_rate": p.answer_rate,
                "events": p.events,
                "energy": p.energy,
            }
            for routing, p in zip(PROTOCOLS, points)
        }

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for proto, r in rows.items():
        print(
            f"{proto:>7}: degree={r['degree']:.2f} answer_rate={r['answer_rate']:.2f} "
            f"events={r['events']:8.0f} energy={r['energy']:8.3f} J"
        )
    # Every real protocol must sustain a functional overlay.
    for proto in ("aodv", "dsdv", "dsr"):
        assert rows[proto]["degree"] > 0.3, f"{proto} failed to build an overlay"
        assert rows[proto]["answer_rate"] > 0, f"{proto} answered nothing"
    # The oracle lower-bounds cost: every real protocol pays real
    # control traffic on top of it.
    assert rows["oracle"]["events"] == min(r["events"] for r in rows.values())
    for proto in ("aodv", "dsdv", "dsr"):
        assert rows[proto]["events"] > rows["oracle"]["events"]
        assert rows[proto]["energy"] > rows["oracle"]["energy"]
