"""Rebroadcast-suppression policies: reference identity and correctness.

Two proof obligations (DESIGN.md, broadcast-suppression plane):

1. The reference lanes are *bit-identical*: ``rebroadcast="flood"`` and
   ``rebroadcast="probabilistic:1.0"`` (which builds no policy, so it
   never touches an RNG) must produce equal semantic registry snapshots,
   time series and derived figures over full scenarios -- the grid
   topology and the dense oracle, csma/lossy channels, several seeds.
2. The suppressing lanes stay *correct*: every answer recorded under
   ``rebroadcast="counter"`` must come from a node that truly holds the
   file (suppression may lose answers, never fabricate them).

Plus unit coverage of the policy objects and the spec parser, pinned
outputs of two suppressing runs,
the ``ring_ttls`` edge-case regression (ttl_start >= ttl_threshold),
and a guard that suppression pays: on a dense query-heavy world
``counter:2`` halves the dispatched events at flood's answer rate.
"""

import math

import numpy as np
import pytest

from repro.aodv.protocol import AodvConfig
from repro.net.suppression import (
    REBROADCAST_KINDS,
    CounterPolicy,
    PolicySpec,
    ProbabilisticPolicy,
    make_rebroadcast_policy,
    parse_policy_spec,
)
from repro.obs.compare import is_cost_key, semantic_snapshot, semantic_timeseries, snapshot_diff
from repro.obs.registry import Registry
from repro.scenarios.builder import build_scenario
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import harvest, run_scenario
from repro.sim import Simulator
from repro.sim.rng import RngRegistry

from .helpers import DenseOracle

SEEDS = (1, 2, 3)


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
class TestParsePolicySpec:
    def test_bare_kinds(self):
        assert REBROADCAST_KINDS == ("flood", "probabilistic", "counter")
        for kind in REBROADCAST_KINDS:
            spec = parse_policy_spec(kind)
            assert spec == PolicySpec(kind)
            assert str(spec) == kind

    def test_parameters(self):
        assert parse_policy_spec("probabilistic:0.5") == PolicySpec("probabilistic", 0.5)
        assert parse_policy_spec("counter:2") == PolicySpec("counter", 2.0)
        assert str(parse_policy_spec("probabilistic:0.5")) == "probabilistic:0.5"

    def test_idempotent_on_spec(self):
        spec = PolicySpec("counter", 2.0)
        assert parse_policy_spec(spec) is spec

    def test_rejects_unknown_kind(self):
        for bad in ("telepathy", "contact", "contact:3"):
            with pytest.raises(ValueError, match="unknown rebroadcast policy 'contact|telepathy"):
                parse_policy_spec(bad)

    def test_rejects_parameter_on_parameterless_kinds(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            parse_policy_spec("flood:1")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="bad parameter"):
            parse_policy_spec("counter:two")
        with pytest.raises(ValueError, match="p must be > 0"):
            parse_policy_spec("probabilistic:0")
        with pytest.raises(ValueError, match="integer >= 1"):
            parse_policy_spec("counter:0.5")

    def test_scenario_config_validates_spec(self):
        for bad in ("nope", "contact"):
            with pytest.raises(ValueError, match=f"unknown rebroadcast policy '{bad}'"):
                ScenarioConfig(rebroadcast=bad)


# ----------------------------------------------------------------------
# policy units
# ----------------------------------------------------------------------
class _Degrees:
    """World stand-in: node ``nid`` has ``degrees[nid]`` radio neighbours."""

    def __init__(self, *degrees):
        self.degrees = degrees
        self.topology = self  # the policy asks world.topology.neighbors

    def neighbors(self, nid):
        return [None] * self.degrees[nid]


class _ExplodingRng:
    def stream(self, name):
        raise AssertionError(f"reference lane must not create stream {name!r}")


class _RecordingRng(RngRegistry):
    """An RngRegistry that logs every stream request."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.requests = []

    def stream(self, name):
        self.requests.append(name)
        return super().stream(name)


class TestProbabilisticPolicy:
    def test_p_one_is_reference_and_never_draws(self):
        # p >= 1 always forwards: the spec builds no policy (no RNG) and
        # the policy class refuses it.
        for spec in ("probabilistic:1", "probabilistic:1.5"):
            assert make_rebroadcast_policy(
                spec, plane="t", registry=Registry(), rng=_ExplodingRng()
            ) is None
        with pytest.raises(ValueError, match=r"p must be in \(0, 1\)"):
            ProbabilisticPolicy(p=1.0, world=_Degrees(10), rng=_ExplodingRng())

    def test_degree_floor_always_sends(self):
        # Node 0 sits at the floor and sends without drawing; node 1
        # does not and gets suppressed at p ~ 0.
        rng = _RecordingRng()
        pol = ProbabilisticPolicy(p=0.0001, world=_Degrees(2, 10), degree_floor=3, rng=rng)
        sent = []
        pol.forward(0, "k", lambda: sent.append(0))
        assert sent == [0] and rng.requests == []
        pol.forward(1, "k", lambda: sent.append(1))
        assert sent == [0] and rng.requests == ["suppression..1"]

    def test_suppression_is_counted(self):
        reg = Registry()
        pol = ProbabilisticPolicy(
            p=0.5, world=_Degrees(10, 10), rng=RngRegistry(7), registry=reg, plane="t"
        )
        sent = []
        for i in range(200):
            pol.forward(i % 2, i, lambda: sent.append(1))
        suppressed = reg.value("flood.suppressed", plane="t")
        assert suppressed == 200 - len(sent)
        assert 50 < suppressed < 150  # p=0.5, 200 trials

    def test_one_lazy_stream_per_node(self):
        # Node nid draws from suppression.<plane>.<nid> -- the stream a
        # per-node policy object used to own -- in its own draw order.
        rng = _RecordingRng(3)
        pol = ProbabilisticPolicy(p=0.5, world=_Degrees(10, 10, 10), rng=rng, plane="t")
        got = {0: [], 2: []}
        for nid in (0, 2, 0, 2, 2):
            pol.forward(nid, None, lambda nid=nid: got[nid].append(1))
        assert sorted(set(rng.requests)) == ["suppression.t.0", "suppression.t.2"]
        ref = RngRegistry(3)
        for nid, draws in ((0, 2), (2, 3)):
            stream = ref.stream(f"suppression.t.{nid}")
            assert len(got[nid]) == sum(stream.random() < 0.5 for _ in range(draws))

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            ProbabilisticPolicy(p=0.0, world=_Degrees(10))


class TestCounterPolicy:
    def _policy(self, sim, threshold=2):
        return CounterPolicy(
            threshold=threshold,
            sim=sim,
            rng=RngRegistry(3),
            registry=sim.registry,
            plane="t",
        )

    def test_fires_without_duplicates(self):
        sim = Simulator()
        pol = self._policy(sim)
        sent = []
        pol.forward(0, "k", lambda: sent.append(1))
        assert pol.pending == 1
        sim.run()
        assert sent == [1] and pol.pending == 0

    def test_threshold_duplicates_cancel(self):
        sim = Simulator()
        pol = self._policy(sim, threshold=2)
        sent = []
        pol.forward(0, "k", lambda: sent.append(1))
        pol.duplicate(0, "k")
        pol.duplicate(0, "k")
        sim.run()
        assert sent == []
        assert sim.registry.value("flood.assessment_cancels", plane="t") == 1
        assert sim.registry.value("flood.suppressed", plane="t") == 1

    def test_below_threshold_still_fires(self):
        sim = Simulator()
        pol = self._policy(sim, threshold=3)
        sent = []
        pol.forward(0, "k", lambda: sent.append(1))
        pol.duplicate(0, "k")
        pol.duplicate(0, "other-key-ignored")
        sim.run()
        assert sent == [1]

    def test_assessments_are_per_node(self):
        # Two nodes assess the same flood id; duplicates one overhears
        # never cancel the other's rebroadcast.
        sim = Simulator()
        pol = self._policy(sim, threshold=1)
        sent = []
        pol.forward(0, "k", lambda: sent.append(0))
        pol.forward(1, "k", lambda: sent.append(1))
        assert pol.pending == 2
        pol.duplicate(1, "k")
        sim.run()
        assert sent == [0]

    def test_cancelled_assessment_costs_no_dispatch(self):
        sim = Simulator()
        pol = self._policy(sim, threshold=1)
        pol.forward(0, "k", lambda: pytest.fail("cancelled send must not fire"))
        pol.duplicate(0, "k")
        dispatched = lambda: sim.registry.value("kernel.events_dispatched")
        before = dispatched()
        sim.run()
        assert dispatched() == before  # lazy O(1) cancellation

    def test_validation(self):
        with pytest.raises(ValueError):
            CounterPolicy(threshold=0, sim=Simulator())
        with pytest.raises(ValueError):
            CounterPolicy(assessment_delay=0.0, sim=Simulator())
        with pytest.raises(ValueError):
            CounterPolicy(sim=None)


class TestFactory:
    def test_kinds(self):
        reg = Registry()
        assert make_rebroadcast_policy("flood", plane="t", registry=reg) is None
        pol = make_rebroadcast_policy(
            "probabilistic:0.4", plane="t", registry=reg, world=_Degrees(10)
        )
        assert isinstance(pol, ProbabilisticPolicy) and pol.p == 0.4
        pol = make_rebroadcast_policy("counter:2", plane="t", registry=reg, sim=Simulator())
        assert isinstance(pol, CounterPolicy) and pol.threshold == 2
        with pytest.raises(ValueError, match="unknown rebroadcast policy 'contact'"):
            make_rebroadcast_policy("contact", plane="t", registry=reg)

    def test_flood_is_reference(self):
        # The reference flood is no policy object: nothing to call, no
        # counters registered.
        reg = Registry()
        assert make_rebroadcast_policy("flood", plane="t", registry=reg) is None
        assert len(reg) == 0

    def test_one_policy_per_plane(self):
        simulation = build_scenario(
            ScenarioConfig(num_nodes=12, duration=5.0, rebroadcast="counter:2")
        )
        flood_policy = simulation.overlay.flood.policy
        rreq_policy = simulation.router.flood.policy
        assert isinstance(flood_policy, CounterPolicy) and flood_policy.plane == "p2p.flood"
        assert isinstance(rreq_policy, CounterPolicy) and rreq_policy.plane == "aodv.rreq"
        # the aodv.rreq flood plane holds the router's policy; agents hold none
        assert not any(hasattr(a, "_policy") for a in simulation.router.agents)


def test_suppression_counters_are_cost_keys():
    assert is_cost_key("flood.suppressed{plane=p2p.flood}")
    assert is_cost_key("flood.assessment_cancels")
    assert is_cost_key("card.contact_hits")
    assert is_cost_key("card.fallback_floods")
    assert is_cost_key("card.contacts_learned")
    # The flood-plane *semantics* stay on the equivalence surface.
    assert not is_cost_key("flood.forwarded")
    assert not is_cost_key("flood.duplicates")
    assert not is_cost_key("flood.originated")


# ----------------------------------------------------------------------
# pinned suppressing lanes: RNG stream names and draw order
# ----------------------------------------------------------------------
#: ``RunResult`` events, ``energy.sum()`` and ``counters`` of two
#: suppressing runs, recorded at 41da6e7 -- when every node still owned
#: its own policy object per plane.  One policy per plane must draw the
#: same per-node streams in the same order, so every value stays.  The
#: ``topology.*`` cache-effort counters are the grid backend's (it runs
#: at every n): ``topology.csr_builds`` joined them.  When a refresh
#: became keep-or-rebuild, ``topology.csr_builds`` rose and
#: ``topology.delta_rebuilds`` / ``moved_nodes`` left.  When AODV's route
#: requests moved onto a flood plane, ``aodv.rreq_keys_live`` became
#: ``flood.ids_live{plane=aodv.rreq}`` and that plane's
#: ``flood.originated`` / ``forwarded`` / ``duplicates`` joined; with the
#: plane keeping ids for PATH_DISCOVERY_TIME (3.2 s), the live count is
#: the old table's again.  Every other value stayed.
PINNED_LANES = {
    "counter2-aodv": (
        dict(num_nodes=50, duration=300.0, seed=1, rebroadcast="counter:2"),
        55547,
        9.33617599999999,
        {
            "alg.connections_closed{alg=regular}": 351, "alg.connections_established{alg=regular}": 418,
            "alg.pings_sent{alg=regular}": 825, "flood.ids_live{plane=aodv.rreq}": 30,
            "flood.originated{plane=aodv.rreq}": 3004, "flood.forwarded{plane=aodv.rreq}": 8443,
            "flood.duplicates{plane=aodv.rreq}": 16182,
            "energy.consumed": 9.33617599999999,
            "flood.assessment_cancels{plane=aodv.rreq}": 801,
            "flood.assessment_cancels{plane=p2p.flood}": 92, "flood.duplicates{plane=p2p.flood}": 1963,
            "flood.forwarded{plane=p2p.flood}": 1113, "flood.ids_live{plane=p2p.flood}": 18,
            "flood.originated{plane=p2p.flood}": 559, "flood.suppressed{plane=aodv.rreq}": 801,
            "flood.suppressed{plane=p2p.flood}": 92, "graphfast.bfs_sources{layer=metrics}": 38,
            "graphfast.triangle_runs{layer=metrics}": 1, "kernel.events_daemon": 0,
            "kernel.events_dispatched": 55547, "kernel.events_skipped": 893, "kernel.heap": 135,
            "kernel.heap_compactions": 0, "kernel.heap_pushes": 36873,
            "net.frames_delivered{layer=radio}": 39534, "net.frames_sent{layer=radio}": 20389,
            "overlay.connections": 67, "overlay.members": 38, "p2p.flood_hops.count": 1035,
            "p2p.flood_hops.sum": 1894, "p2p.flood_hops.min": 1, "p2p.flood_hops.max": 6,
            "p2p.received{family=connect}": 2667, "p2p.received{family=other}": 0,
            "p2p.received{family=ping}": 1299, "p2p.received{family=query}": 773,
            "p2p.received{family=transfer}": 0, "routing.data_forwarded{protocol=aodv}": 1955,
            "routing.rerr_sent{protocol=aodv}": 531,
            "routing.rrep_sent{protocol=aodv}": 1874, "routing.rreq_sent{protocol=aodv}": 3004,
            "topology.csr_builds{layer=topology}": 888,
            "topology.dist_cache_hits{layer=topology}": 8,
            "topology.rebuilds{layer=topology}": 896,
        },
    ),
    "gossip05-aodv-lossy": (
        dict(num_nodes=50, duration=300.0, seed=1, rebroadcast="probabilistic:0.5", mac="lossy"),
        35595,
        7.197351000000034,
        {
            "alg.connections_closed{alg=regular}": 329, "alg.connections_established{alg=regular}": 382,
            "alg.pings_sent{alg=regular}": 654, "flood.ids_live{plane=aodv.rreq}": 31,
            "flood.originated{plane=aodv.rreq}": 3045, "flood.forwarded{plane=aodv.rreq}": 5862,
            "flood.duplicates{plane=aodv.rreq}": 9999,
            "energy.consumed": 7.197351000000034,
            "flood.duplicates{plane=p2p.flood}": 1635, "flood.forwarded{plane=p2p.flood}": 1041,
            "flood.ids_live{plane=p2p.flood}": 21, "flood.originated{plane=p2p.flood}": 619,
            "flood.suppressed{plane=aodv.rreq}": 998, "flood.suppressed{plane=p2p.flood}": 124,
            "graphfast.bfs_sources{layer=metrics}": 38, "graphfast.triangle_runs{layer=metrics}": 1,
            "kernel.events_daemon": 0, "kernel.events_dispatched": 35595, "kernel.events_skipped": 0,
            "kernel.heap": 132, "kernel.heap_compactions": 0, "kernel.heap_pushes": 22134,
            "net.frames_delivered{layer=lossy}": 29311, "net.frames_sent{layer=lossy}": 17120,
            "net.losses{layer=lossy}": 4355, "overlay.connections": 53, "overlay.members": 38,
            "p2p.flood_hops.count": 978, "p2p.flood_hops.sum": 1600, "p2p.flood_hops.min": 1,
            "p2p.flood_hops.max": 6, "p2p.received{family=connect}": 2334,
            "p2p.received{family=other}": 0, "p2p.received{family=ping}": 999,
            "p2p.received{family=query}": 499, "p2p.received{family=transfer}": 0,
            "routing.data_forwarded{protocol=aodv}": 956,
            "routing.rerr_sent{protocol=aodv}": 1067, "routing.rrep_sent{protocol=aodv}": 1878,
            "routing.rreq_sent{protocol=aodv}": 3045,
            "topology.csr_builds{layer=topology}": 829,
            "topology.dist_cache_hits{layer=topology}": 4,
            "topology.rebuilds{layer=topology}": 839,
        },
    ),
}


@pytest.mark.parametrize("lane", sorted(PINNED_LANES))
def test_suppressing_lane_is_pinned(lane):
    fields, events, energy_total, counters = PINNED_LANES[lane]
    result = run_scenario(ScenarioConfig(**fields))
    assert result.events == events
    assert float(result.energy.sum()) == energy_total
    assert result.counters == counters


# ----------------------------------------------------------------------
# ring_ttls regression (satellite: draft §6.4 edge case)
# ----------------------------------------------------------------------
class TestRingTtls:
    def test_defaults(self):
        assert AodvConfig().ring_ttls() == [2, 4, 6, 20, 20, 20]

    def test_ttl_start_at_threshold_still_probes_one_ring(self):
        cfg = AodvConfig(ttl_start=7)
        assert cfg.ring_ttls() == [7, 20, 20, 20]

    def test_ttl_start_above_threshold(self):
        # Used to return bare network-wide retries with no bounded ring.
        cfg = AodvConfig(ttl_start=9, ttl_threshold=7)
        ttls = cfg.ring_ttls()
        assert ttls == [7, 20, 20, 20]
        assert len(ttls) == 1 + 1 + cfg.rreq_retries


# ----------------------------------------------------------------------
# scenario-level reference identity: flood == probabilistic:1.0
# ----------------------------------------------------------------------
def _run_lane(seed: int, topology: str, rebroadcast: str):
    """One full scenario on one rebroadcast lane; harvested evidence."""
    cfg = ScenarioConfig(
        num_nodes=40,
        duration=40.0,
        seed=seed,
        mac="csma" if topology == "dense" else "lossy",
        energy_capacity=0.05,
        obs_interval=10.0,
        rebroadcast=rebroadcast,
    )
    simulation = build_scenario(cfg)
    if topology == "dense":
        simulation.world.topology = DenseOracle(simulation.world)
    simulation.run()
    result = harvest(simulation)
    return {
        "snapshot": semantic_snapshot(simulation.registry),
        "timeseries": semantic_timeseries(result.timeseries),
        "events": result.events,
        "totals": result.totals,
        "energy": result.energy,
    }


@pytest.mark.parametrize("topology", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_probabilistic_one_bit_identical_to_flood(seed, topology):
    ref = _run_lane(seed, topology, "flood")
    gos = _run_lane(seed, topology, "probabilistic:1.0")
    assert snapshot_diff(ref["snapshot"], gos["snapshot"]) == {}
    assert ref["timeseries"] == gos["timeseries"]
    assert ref["events"] == gos["events"]
    assert ref["totals"] == gos["totals"]
    np.testing.assert_array_equal(ref["energy"], gos["energy"])


# ----------------------------------------------------------------------
# suppressing lanes: answers must stay truthful
# ----------------------------------------------------------------------
def _run(cfg: ScenarioConfig):
    simulation = build_scenario(cfg)
    simulation.run()
    return simulation


def _answer_correctness(simulation):
    """Every answer a finished run recorded must come from a true holder."""
    servents = simulation.overlay.servents
    answers = 0
    for servent in servents.values():
        for record in servent.query_engine.records:
            for holder, p2p_hops, _ in record.answers:
                answers += 1
                assert holder != record.requirer
                assert p2p_hops >= 1
                # download is off, so stores never changed mid-run: the
                # holder must hold the file right now.
                assert servents[holder].store.has(record.file_id), (
                    f"node {holder} answered query for file {record.file_id} "
                    "it does not hold"
                )
    records = sum(len(s.query_engine.records) for s in servents.values())
    return records, answers


def _query_cfg(**kw):
    from repro.core.query import QueryConfig

    return ScenarioConfig(
        num_nodes=40,
        duration=60.0,
        seed=2,
        query=QueryConfig(
            warmup=10.0, response_wait=8.0, gap_min=4.0, gap_max=10.0, target="zipf"
        ),
        **kw,
    )


def test_counter_lane_answers_are_truthful():
    simulation = _run(_query_cfg(rebroadcast="counter:2"))
    records, answers = _answer_correctness(simulation)
    assert records > 0 and answers > 0


# ----------------------------------------------------------------------
# suppression pays: fewer dispatches at the same answer rate
# ----------------------------------------------------------------------
def test_counter_suppression_halves_dispatch_at_equal_answer_rate():
    """At radio degree ~20, ``counter:2`` dispatches half the events of
    ``flood`` and answers as many zipf queries (within 5 points)."""
    from repro.core.query import QueryConfig

    n = 150
    side = math.sqrt(n * math.pi * 100.0 / 20.0)  # radio degree ~20

    def lane(policy):
        result = run_scenario(
            ScenarioConfig(
                num_nodes=n,
                duration=10.0,
                seed=1,
                area_width=side,
                area_height=side,
                rebroadcast=policy,
                query=QueryConfig(
                    warmup=2.0, response_wait=4.0, gap_min=2.0, gap_max=6.0, target="zipf"
                ),
            )
        )
        assert result.num_queries > 0
        answered = sum(s.answered for s in result.file_stats)
        return result.events, answered / result.num_queries

    flood_events, flood_rate = lane("flood")
    counter_events, counter_rate = lane("counter:2")
    assert flood_events / counter_events >= 2.0
    assert abs(counter_rate - flood_rate) <= 0.05
