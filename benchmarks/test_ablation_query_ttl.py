"""Ablation: the query TTL (Table 2 fixes it at 6 p2p hops).

Sweeps the TTL to show the trade the paper's choice sits on: a larger
TTL reaches more holders (more answers) at the price of more query
traffic per request.
"""

from repro.core import QueryConfig
from repro.experiments import ExperimentExecutor
from repro.scenarios import ScenarioConfig

from .conftest import env_duration

TTLS = (2, 6, 10)


def test_query_ttl_sweep(benchmark):
    duration = env_duration(500.0)

    def sweep():
        runs = ExperimentExecutor().run_configs(
            [
                ScenarioConfig(
                    num_nodes=50,
                    duration=duration,
                    algorithm="regular",
                    seed=151,
                    query=QueryConfig(ttl=ttl),
                )
                for ttl in TTLS
            ]
        )
        rows = []
        for ttl, res in zip(TTLS, runs):
            answered = sum(s.answered for s in res.file_stats)
            total = sum(s.queries for s in res.file_stats)
            rows.append(
                {
                    "ttl": ttl,
                    "answer_rate": answered / total if total else 0.0,
                    "query_msgs_per_request": res.totals["query"] / max(total, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for r in rows:
        print(
            f"TTL={r['ttl']:2d}: answer_rate={r['answer_rate']:.2f} "
            f"query msgs/request={r['query_msgs_per_request']:.1f}"
        )
    # More TTL -> at least as many answers, and more traffic per request.
    assert rows[-1]["answer_rate"] >= rows[0]["answer_rate"]
    assert rows[-1]["query_msgs_per_request"] > rows[0]["query_msgs_per_request"]
