"""Ablation: Gnutella's transfer phase -- replication changes availability.

The paper models queries only; real Gnutella transfers the file and the
copy then serves future queries.  With the transfer plane enabled
(``QueryConfig.download = True``), popular files replicate over time, so
late queries should be answered more often and from closer by than
early ones.
"""

from repro.core import QueryConfig
from repro.experiments import ExperimentExecutor
from repro.scenarios import ScenarioConfig

from .conftest import env_duration


def test_replication_improves_late_queries(benchmark):
    duration = env_duration(900.0)

    def run_both():
        labels = {"static": False, "replicating": True}
        runs = ExperimentExecutor().run_configs(
            [
                ScenarioConfig(
                    num_nodes=50,
                    duration=duration,
                    algorithm="regular",
                    seed=131,
                    query=QueryConfig(
                        download=download,
                        warmup=60.0,
                        response_wait=15.0,
                        gap_min=10.0,
                        gap_max=20.0,
                    ),
                )
                for download in labels.values()
            ]
        )
        out = {}
        for label, res in zip(labels, runs):
            answered = sum(s.answered for s in res.file_stats)
            total = sum(s.queries for s in res.file_stats)
            out[label] = {
                "answer_rate": answered / total if total else 0.0,
                "avg_answers_rank1": res.file_stats[0].avg_answers,
                "transfer_msgs": res.totals["transfer"],
            }
        return out

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    for label, r in out.items():
        print(
            f"{label:>12}: answer_rate={r['answer_rate']:.2f} "
            f"avg answers for rank-1 file={r['avg_answers_rank1']:.2f} "
            f"transfer msgs={r['transfer_msgs']:.0f}"
        )
    assert out["static"]["transfer_msgs"] == 0
    assert out["replicating"]["transfer_msgs"] > 0
    # Replication makes content easier to find.
    assert (
        out["replicating"]["answer_rate"] >= out["static"]["answer_rate"]
    ), "replication should not reduce availability"
