"""Every router counter is a ``routing.<name>{protocol=...}`` registry
series, and ``control_overhead()`` is only a read of those series."""

import pytest

from repro.scenarios.builder import build_scenario
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import harvest

EXPECTED = {
    "aodv": {"rreq_sent", "rrep_sent", "rerr_sent", "data_forwarded"},
    "dsr": {"rreq_sent", "rrep_sent", "rerr_sent", "data_forwarded", "salvaged"},
    "dsdv": {"updates_sent", "data_forwarded"},
    "oracle": {"send_failures"},
}


@pytest.mark.parametrize("routing", sorted(EXPECTED))
def test_router_counters_reach_the_run_result(routing):
    simulation = build_scenario(
        ScenarioConfig(num_nodes=30, duration=60.0, algorithm="regular", routing=routing, seed=2)
    )
    simulation.run()
    result = harvest(simulation)
    series = {
        key[len("routing."):].split("{")[0]: value
        for key, value in result.counters.items()
        if key.startswith("routing.") and key.endswith(f"{{protocol={routing}}}")
    }
    assert set(series) == EXPECTED[routing]
    overhead = simulation.router.control_overhead()
    assert set(overhead) == EXPECTED[routing]
    for name, value in overhead.items():
        assert value == simulation.registry.value(f"routing.{name}", protocol=routing)
        assert value == series[name]
    # no counter lives on the router or its agents any more
    holders = [simulation.router, *getattr(simulation.router, "agents", [])]
    assert not any(hasattr(h, name) for h in holders for name in EXPECTED[routing])
    if routing != "oracle":
        assert sum(overhead.values()) > 0


def test_aodv_rreq_ledger_reads_from_the_flood_plane():
    # Route requests ride the aodv.rreq flood plane: every RREQ the
    # router counts is one flood the plane originated, and its forwards
    # and dropped duplicate copies are registry series too.
    simulation = build_scenario(
        ScenarioConfig(num_nodes=30, duration=60.0, algorithm="regular", seed=2)
    )
    simulation.run()
    counters = harvest(simulation).counters
    sent = counters["routing.rreq_sent{protocol=aodv}"]
    assert sent > 0
    assert counters["flood.originated{plane=aodv.rreq}"] == sent
    assert counters["flood.forwarded{plane=aodv.rreq}"] > 0
    assert counters["flood.duplicates{plane=aodv.rreq}"] > 0
    assert "flood.ids_live{plane=aodv.rreq}" in counters
