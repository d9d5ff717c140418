"""Batched delivery is bit-identical to the per-receiver reference.

Batched delivery collapses a broadcast's k per-receiver heap entries
into one batch event dispatched in ascending-nid order (DESIGN.md §5).
These tests are the proof obligation: for full scenarios -- churn,
finite energy, lossy/CSMA channels, the grid topology and the dense
oracle (``helpers.DenseOracle``), several seeds -- the *semantic*
registry snapshot (everything except the scheduler-cost metrics
enumerated in ``repro.obs.compare``) and the sampled time-series must be
equal to the last bit between the two lanes, while heap traffic must
strictly drop.

``test_wavefront_bit_identical`` does the same for the delivery body
that, at infinite energy, charges a transmission's receivers in one step
and hands the AODV and flood planes all of them in one call, down to the
per-node energy ledger: on the ideal MAC, on CSMA (whose completions
reach the planes as whole transmissions), with finite energy (where it
walks the copies one by one) and for the reader of every duplicate copy
(the ``counter`` policy).

The batched copies reach the kernel through ``Simulator.post_at``, a
handle-free FIFO beside the event heap; the per-copy pin schedules
through ``schedule()``.  ``test_per_copy_pin_matches_the_fifo_path``
holds the two apart and counts the Events each builds.
"""

import itertools

import numpy as np
import pytest

from repro.core.query import QueryConfig
from repro.net import BROADCAST, Channel, Frame
from repro.obs.compare import (
    is_scheduler_cost_key,
    semantic_snapshot,
    semantic_timeseries,
    snapshot_diff,
)
from repro.scenarios.builder import build_scenario
from repro.scenarios.churn import ChurnProcess
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import harvest
from repro.sim import kernel

from .helpers import DenseOracle, make_world, pin_per_copy_delivery

SEEDS = (1, 2, 3)


def _run_lane(seed: int, topology: str, batched: bool, *, churn: bool = True):
    """One full scenario on one delivery lane; returns harvested evidence."""
    cfg = ScenarioConfig(
        num_nodes=40,
        duration=40.0,
        seed=seed,
        # Exercise both non-ideal channels: collisions on the dense
        # oracle, probabilistic loss on the grid.
        mac="csma" if topology == "dense" else "lossy",
        energy_capacity=0.05,
        obs_interval=10.0,
    )
    simulation = build_scenario(cfg)
    if topology == "dense":
        simulation.world.topology = DenseOracle(simulation.world)
    if not batched:
        pin_per_copy_delivery(simulation.channel)
    if churn:
        # The builder does not wire churn; attach it on a dedicated
        # stream so both lanes draw identical death/revival sequences.
        ChurnProcess(
            simulation.sim,
            simulation.world,
            np.random.default_rng(10_000 + seed),
            death_rate=0.05,
            mean_downtime=10.0,
        ).start()
    simulation.run()
    result = harvest(simulation)
    return {
        "snapshot": semantic_snapshot(simulation.registry),
        "timeseries": semantic_timeseries(result.timeseries),
        "events": result.events,
        "heap_pushes": simulation.registry.value("kernel.heap_pushes"),
        "energy": result.energy,
        "totals": result.totals,
    }


@pytest.mark.parametrize("topology", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lanes_bit_identical(seed, topology):
    ref = _run_lane(seed, topology, batched=False)
    bat = _run_lane(seed, topology, batched=True)
    # Full semantic registry snapshot: equal key sets, equal values.
    assert snapshot_diff(ref["snapshot"], bat["snapshot"]) == {}
    # Sampled time-series rows match bit-for-bit too.
    assert ref["timeseries"] == bat["timeseries"]
    # Derived figures agree exactly.
    assert ref["events"] == bat["events"]
    assert ref["totals"] == bat["totals"]
    np.testing.assert_array_equal(ref["energy"], bat["energy"])
    # The batching is real: strictly fewer heap entries on the fast lane.
    assert bat["heap_pushes"] < ref["heap_pushes"]


def _snipe_receivers(simulation, every: int = 9) -> None:
    """Churn aimed at the window the batch's liveness pass must cover:
    every ``every``-th broadcast takes its lowest-id receiver down while
    the frame is in flight and revives it after delivery.  Driven by the
    broadcast sequence itself, so both lanes see identical deaths."""
    channel, world, sim = simulation.channel, simulation.world, simulation.sim
    send = channel.broadcast
    count = itertools.count(1)

    def broadcast(frame):
        receivers = world.topology.neighbors(frame.src)
        n = send(frame)
        if n and next(count) % every == 0:
            victim = int(receivers[0])
            sim.schedule(channel.latency / 2, world.set_down, victim, True)
            sim.schedule(channel.latency * 3, world.set_down, victim, False)
        return n

    channel.broadcast = broadcast


#: case -> (config overrides, routings it applies to)
WAVEFRONT_CASES = {
    # (a) receivers die between send and delivery; the wavefront body runs
    "churn": ({}, ("aodv", "oracle", "dsr")),
    # (b) receivers deplete mid-transmission: the per-copy walk
    "finite_energy": ({"energy_capacity": 0.01}, ("aodv", "oracle", "dsr")),
    # (c) CSMA completions: the survivors of one transmission in one call
    "csma": ({"mac": "csma"}, ("aodv", "oracle", "dsr")),
    # (d) a non-reference policy must see every duplicate
    "counter": ({"rebroadcast": "counter:2"}, ("aodv",)),
}


def _run_wavefront(seed, topology, routing, case, batched):
    overrides, _ = WAVEFRONT_CASES[case]
    cfg = ScenarioConfig(
        num_nodes=30,
        # nominal degree ~8 (less at the border): most broadcasts are real batches
        area_width=35.0,
        area_height=35.0,
        duration=8.0,
        query=QueryConfig(warmup=2.0, response_wait=4.0, gap_min=2.0, gap_max=6.0),
        seed=seed,
        routing=routing,
        **overrides,
    )
    simulation = build_scenario(cfg)
    if topology == "dense":
        simulation.world.topology = DenseOracle(simulation.world)
    if not batched:
        pin_per_copy_delivery(simulation.channel)
    if case == "churn":
        _snipe_receivers(simulation)
    simulation.run()
    harvest(simulation)
    energy = simulation.world.energy
    raw = simulation.registry.aggregated(skip_kinds=("timer",))
    return {
        "snapshot": semantic_snapshot(simulation.registry),
        "consumed": energy.consumed.copy(),
        "rx_count": energy.rx_count.copy(),
        "tx_count": energy.tx_count.copy(),
        "depleted": int(energy.depleted().sum()),
        "suppression": {
            k: v
            for k, v in raw.items()
            if k.startswith(("flood.suppressed", "flood.assessment_cancels"))
        },
        "plane_kinds": sorted(simulation.channel._planes),
        "heap_pushes": simulation.registry.value("kernel.heap_pushes"),
    }


@pytest.mark.parametrize(
    "case,routing",
    [(case, routing) for case, (_, routings) in WAVEFRONT_CASES.items() for routing in routings],
)
@pytest.mark.parametrize("topology", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_wavefront_bit_identical(seed, topology, routing, case):
    ref = _run_wavefront(seed, topology, routing, case, batched=False)
    bat = _run_wavefront(seed, topology, routing, case, batched=True)
    assert snapshot_diff(ref["snapshot"], bat["snapshot"]) == {}
    # The per-node ledger agrees to the last bit, not just its total.
    assert np.array_equal(ref["consumed"], bat["consumed"])
    assert np.array_equal(ref["rx_count"], bat["rx_count"])
    assert np.array_equal(ref["tx_count"], bat["tx_count"])
    assert bat["heap_pushes"] < ref["heap_pushes"]
    if case == "finite_energy":
        assert bat["depleted"] > 0  # the case is real: batteries ran out
    if case == "counter":
        assert bat["suppression"] and bat["suppression"] == ref["suppression"]
    # The control planes take whole transmissions on the batched lane:
    # AODV's control frames and its route-request flood plane.
    aodv_plane = ["aodv.ctrl", "aodv.rreq"] if routing == "aodv" else []
    assert bat["plane_kinds"] == aodv_plane + ["p2p.flood"]


def _count_events(monkeypatch):
    """Count every :class:`~repro.sim.events.Event` the kernel builds."""
    built = []
    event = kernel.Event

    def counting(*args, **kwargs):
        built.append(1)
        return event(*args, **kwargs)

    monkeypatch.setattr(kernel, "Event", counting)
    return built


def _count_copy_pushes(channel):
    """Count the queue entries ``channel._schedule_copies`` makes."""
    pushes = []
    schedule_copies = channel._schedule_copies

    def counting(delay, receivers, *rest):
        if len(receivers):
            pushes.append(1)
        schedule_copies(delay, receivers, *rest)

    channel._schedule_copies = counting
    return pushes


@pytest.mark.parametrize("mac", ["ideal", "lossy", "csma"])
def test_per_copy_pin_matches_the_fifo_path(mac, monkeypatch):
    """The pin's one ``schedule()`` per receiver -- an Event each --
    against the batched copies posted to the FIFO: the same run to the
    last bit.  On the FIFO path no radio copy builds an Event, except
    CSMA completions posted behind a later one, which fall back to the
    heap."""
    built = _count_events(monkeypatch)
    lanes = []
    for pin in (True, False):
        del built[:]
        simulation = build_scenario(
            ScenarioConfig(num_nodes=40, duration=60.0, seed=2, mac=mac, obs_interval=15.0)
        )
        if pin:
            pin_per_copy_delivery(simulation.channel)
        copies = _count_copy_pushes(simulation.channel)
        simulation.run()
        result = harvest(simulation)
        lanes.append(
            {
                "snapshot": semantic_snapshot(simulation.registry),
                "timeseries": semantic_timeseries(result.timeseries),
                "totals": result.totals,
                "energy": result.energy.tolist(),
                "events": result.events,
                "pushes": simulation.registry.value("kernel.heap_pushes"),
                "built": len(built),
                "copies": len(copies),
            }
        )
    pinned, posted = lanes
    assert pinned.pop("built") == pinned["pushes"]
    fallbacks = posted.pop("built") - (posted["pushes"] - posted["copies"])
    assert fallbacks > 0 if mac == "csma" else fallbacks == 0
    assert pinned.pop("copies") == posted.pop("copies") > 500
    assert posted.pop("pushes") < pinned.pop("pushes")
    assert snapshot_diff(pinned.pop("snapshot"), posted.pop("snapshot")) == {}
    assert pinned == posted


def test_per_copy_reference_is_no_channel_option():
    sim, world, _ = make_world([[0, 0], [4, 0]])
    with pytest.raises(TypeError):
        Channel(sim, world, batched=False)


def test_per_copy_pin_bites_on_a_plain_channel():
    """``pin_per_copy_delivery`` really reroutes a plain ``Channel``'s
    broadcast: one weight-3 event becomes three heap pushes, while the
    logical deliveries stay equal."""
    pushes, got = [], []
    for pin in (False, True):
        sim, _, channel = make_world([[0, 0], [4, 0], [0, 4], [4, 4]])
        if pin:
            pin_per_copy_delivery(channel)
        heard = []
        for node in channel.nodes[1:]:
            node.register("t", lambda frame, nid=node.nid: heard.append(nid))
        assert channel.broadcast(Frame(0, BROADCAST, "t", None)) == 3
        sim.run()
        pushes.append(sim.registry.value("kernel.heap_pushes"))
        got.append((heard, sim.registry.value("kernel.events_dispatched")))
    assert pushes == [1, 3]
    assert got[0] == got[1] == ([1, 2, 3], 3)


def test_scheduler_cost_keys_classified():
    assert is_scheduler_cost_key("kernel.heap_pushes")
    assert is_scheduler_cost_key('kernel.heap{node="3"}')
    assert not is_scheduler_cost_key("kernel.events_dispatched")
    assert not is_scheduler_cost_key("radio.frames_delivered")


def test_snapshot_diff_reports_mismatches():
    a = {"x": 1.0, "y": 2.0}
    b = {"x": 1.0, "y": 3.0, "z": 4.0}
    diff = snapshot_diff(a, b)
    assert diff == {"y": (2.0, 3.0), "z": (None, 4.0)}
