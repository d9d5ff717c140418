"""Bench: Table 1 -- topology taxonomy.

Regenerates the paper's Table 1 from the encoded topology traits and
verifies, on live (scaled) simulations, the two *testable* claims behind
it: decentralized and hybrid overlays keep working when nodes die
(fault-tolerant) and accept new members at runtime (extensible).
"""

from repro.experiments import render_table, table1_rows
from repro.scenarios import ScenarioConfig, build_scenario

#: the live check's fixed horizon (the REPRO_BENCH_* knobs do not scale
#: it): survivors need time after the kill to re-link and get answers
KILL_AT, END_AT = 150.0, 450.0


def test_table1(benchmark):
    rows = benchmark.pedantic(table1_rows, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Table 1. Topologies and their characteristics."))
    header = rows[0]
    assert header == ["", "Centralized", "Decentralized", "Hybrid"]
    as_dict = {r[0]: dict(zip(header[1:], r[1:])) for r in rows[1:]}
    # The paper's adoption criteria (§2): the two adopted classes are
    # extensible and fault-tolerant; centralized is neither.
    for topo in ("Decentralized", "Hybrid"):
        assert as_dict["Extensible"][topo] == "yes"
        assert as_dict["Fault-Tolerant"][topo] == "yes"
    assert as_dict["Extensible"]["Centralized"] == "no"
    assert as_dict["Fault-Tolerant"]["Centralized"] == "no"


def test_fault_tolerance_claim_live(benchmark):
    """Half the overlay dies mid-run; the survivors keep answering."""
    cfg = ScenarioConfig(num_nodes=40, duration=END_AT, algorithm="regular", seed=11)

    def run():
        s = build_scenario(cfg)
        s.overlay.start()
        s.sim.run(until=KILL_AT)
        victims = s.members[: len(s.members) // 2]
        for v in victims:
            s.world.set_down(v)
        s.sim.run(until=END_AT)
        survivors = [m for m in s.members if m not in victims]
        # closed queries the survivors issued after the kill
        return [
            r
            for m in survivors
            for r in s.overlay.servents[m].query_engine.records
            if r.issued_at > KILL_AT
        ]

    late = benchmark.pedantic(run, rounds=1, iterations=1)
    answered = [r for r in late if r.answered]
    print(f"\nsurvivors' queries after the kill: {len(answered)} of {len(late)} answered")
    assert answered, "overlay did not survive losing half its members"
