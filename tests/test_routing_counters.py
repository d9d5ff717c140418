"""Every router counter is a ``routing.<name>{protocol=...}`` registry
series, and ``control_overhead()`` is only a read of those series."""

import numpy as np
import pytest

from repro.aodv import AodvConfig, AodvRouter
from repro.mobility import Area, Static
from repro.net import Channel, World
from repro.scenarios.builder import build_scenario
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import harvest
from repro.sim import Simulator

from .helpers import line_positions

EXPECTED = {
    "aodv": {"rreq_sent", "rrep_sent", "rerr_sent", "hello_sent", "data_forwarded"},
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


def test_aodv_hello_beacons_are_reported():
    pts = np.asarray(line_positions(3, spacing=8.0), dtype=float)
    sim = Simulator()
    world = World(sim, Static(3, Area(1000, 1000), np.random.default_rng(0), positions=pts))
    router = AodvRouter(sim, Channel(sim, world), config=AodvConfig(hello_interval=1.0))
    sim.run(until=10.0)
    assert router.control_overhead()["hello_sent"] > 0
    assert router.control_overhead()["hello_sent"] == sim.registry.value(
        "routing.hello_sent", protocol="aodv"
    )
