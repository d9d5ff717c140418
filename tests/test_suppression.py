"""Rebroadcast-suppression policies: reference identity and correctness.

Two proof obligations (DESIGN.md, broadcast-suppression plane):

1. The reference lanes are *bit-identical*: ``rebroadcast="flood"`` and
   ``rebroadcast="probabilistic:1.0"`` (which builds no policy, so it
   never touches an RNG) must produce equal semantic registry snapshots,
   time series and derived figures over full scenarios -- dense/sparse
   topologies, csma/lossy channels, several seeds.
2. The suppressing lanes stay *correct*: every answer recorded under
   ``counter`` or ``contact`` must come from a node that truly holds
   the file (suppression may lose answers, never fabricate them).

Plus unit coverage of the policy objects and the spec parser, the
``ring_ttls`` edge-case regression (ttl_start >= ttl_threshold), and a
guard that suppression pays: on a dense query-heavy world ``counter:2``
halves the dispatched events at flood's answer rate.
"""

import math

import numpy as np
import pytest

from repro.aodv.protocol import AodvConfig
from repro.net.suppression import (
    ContactPolicy,
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

from .helpers import pin_backend

SEEDS = (1, 2, 3)


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
class TestParsePolicySpec:
    def test_bare_kinds(self):
        for kind in ("flood", "probabilistic", "counter", "contact"):
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
        with pytest.raises(ValueError, match="unknown rebroadcast"):
            parse_policy_spec("telepathy")

    def test_rejects_parameter_on_parameterless_kinds(self):
        for bad in ("flood:1", "contact:3"):
            with pytest.raises(ValueError, match="takes no parameter"):
                parse_policy_spec(bad)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="bad parameter"):
            parse_policy_spec("counter:two")
        with pytest.raises(ValueError, match="p must be > 0"):
            parse_policy_spec("probabilistic:0")
        with pytest.raises(ValueError, match="integer >= 1"):
            parse_policy_spec("counter:0.5")

    def test_scenario_config_validates_spec(self):
        with pytest.raises(ValueError, match="unknown rebroadcast"):
            ScenarioConfig(rebroadcast="nope")
        with pytest.raises(ValueError, match="unknown query policy"):
            ScenarioConfig(query_policy="counter")


# ----------------------------------------------------------------------
# policy units
# ----------------------------------------------------------------------
def _explode():
    raise AssertionError("reference lane must not create an RNG stream")


class TestProbabilisticPolicy:
    def test_p_one_is_reference_and_never_draws(self):
        # p >= 1 always forwards: the spec builds no policy (no RNG) and
        # the policy class refuses it.
        for spec in ("probabilistic:1", "probabilistic:1.5"):
            assert make_rebroadcast_policy(
                spec, plane="t", node=0, registry=Registry(), rng_factory=_explode
            ) is None
        with pytest.raises(ValueError, match=r"p must be in \(0, 1\)"):
            ProbabilisticPolicy(p=1.0, rng_factory=_explode)

    def test_degree_floor_always_sends(self):
        pol = ProbabilisticPolicy(
            p=0.0001, degree=lambda: 2, degree_floor=3, rng_factory=_explode
        )
        sent = []
        pol.forward("k", lambda: sent.append(1))
        assert sent == [1]

    def test_suppression_is_counted(self):
        reg = Registry()
        pol = ProbabilisticPolicy(
            p=0.5,
            degree=lambda: 10,
            rng_factory=lambda: np.random.default_rng(7),
            registry=reg,
            plane="t",
        )
        sent = []
        for i in range(200):
            pol.forward(i, lambda: sent.append(1))
        suppressed = reg.value("flood.suppressed", plane="t")
        assert suppressed == 200 - len(sent)
        assert 50 < suppressed < 150  # p=0.5, 200 trials

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            ProbabilisticPolicy(p=0.0)


class TestCounterPolicy:
    def _policy(self, sim, threshold=2):
        return CounterPolicy(
            threshold=threshold,
            sim=sim,
            rng_factory=lambda: np.random.default_rng(3),
            registry=sim.registry,
            plane="t",
        )

    def test_fires_without_duplicates(self):
        sim = Simulator()
        pol = self._policy(sim)
        sent = []
        pol.forward("k", lambda: sent.append(1))
        assert pol.pending == 1
        sim.run()
        assert sent == [1] and pol.pending == 0

    def test_threshold_duplicates_cancel(self):
        sim = Simulator()
        pol = self._policy(sim, threshold=2)
        sent = []
        pol.forward("k", lambda: sent.append(1))
        pol.duplicate("k")
        pol.duplicate("k")
        sim.run()
        assert sent == []
        assert sim.registry.value("flood.assessment_cancels", plane="t") == 1
        assert sim.registry.value("flood.suppressed", plane="t") == 1

    def test_below_threshold_still_fires(self):
        sim = Simulator()
        pol = self._policy(sim, threshold=3)
        sent = []
        pol.forward("k", lambda: sent.append(1))
        pol.duplicate("k")
        pol.duplicate("other-key-ignored")
        sim.run()
        assert sent == [1]

    def test_cancelled_assessment_costs_no_dispatch(self):
        sim = Simulator()
        pol = self._policy(sim, threshold=1)
        pol.forward("k", lambda: pytest.fail("cancelled send must not fire"))
        pol.duplicate("k")
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


class TestContactPolicy:
    def test_learn_and_order(self):
        pol = ContactPolicy(node=0)
        pol.learn_holder(7, 1)
        pol.learn_holder(7, 2)
        pol.learn_holder(7, 3)
        assert pol.contacts_for(7) == [3, 2, 1]  # most recent first
        pol.learn_holder(7, 1)  # re-confirmed: moves to front
        assert pol.contacts_for(7) == [1, 3, 2]

    def test_never_learns_self(self):
        pol = ContactPolicy(node=5)
        pol.learn_holder(7, 5)
        assert pol.contacts_for(7) == []

    def test_holder_lru_bound(self):
        pol = ContactPolicy(node=0, max_holders=2)
        for holder in (1, 2, 3):
            pol.learn_holder(7, holder)
        assert pol.contacts_for(7) == [3, 2]  # 1 evicted

    def test_file_lru_bound(self):
        pol = ContactPolicy(node=0, max_files=2)
        for fid in (1, 2, 3):
            pol.learn_holder(fid, 9)
        assert pol.known_files == 2
        assert pol.contacts_for(1) == []  # oldest file evicted

    def test_forget(self):
        pol = ContactPolicy(node=0)
        pol.learn_holder(7, 1)
        pol.forget(7)
        assert pol.contacts_for(7) == []

    def test_vicinity_bound_and_self_skip(self):
        pol = ContactPolicy(node=0, max_peers=2)
        pol.overhear(0, 1)  # self: ignored
        for origin in (1, 2, 3):
            pol.overhear(origin, 2)
        assert pol.known_peers == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ContactPolicy(fallback_wait=0.0)


class TestFactory:
    def test_kinds(self):
        reg = Registry()
        assert make_rebroadcast_policy("flood", plane="t", node=0, registry=reg) is None
        pol = make_rebroadcast_policy("probabilistic:0.4", plane="t", node=0, registry=reg)
        assert isinstance(pol, ProbabilisticPolicy) and pol.p == 0.4
        pol = make_rebroadcast_policy(
            "counter:2", plane="t", node=0, registry=reg, sim=Simulator()
        )
        assert isinstance(pol, CounterPolicy) and pol.threshold == 2
        assert isinstance(
            make_rebroadcast_policy("contact", plane="t", node=0, registry=reg),
            ContactPolicy,
        )

    def test_flood_is_reference(self):
        # The reference flood is no policy object: nothing to call, no
        # counters registered.
        reg = Registry()
        assert make_rebroadcast_policy("flood", plane="t", node=0, registry=reg) is None
        assert len(reg) == 0


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
    with pin_backend(topology):
        simulation = build_scenario(cfg)
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
def _answer_correctness(cfg: ScenarioConfig):
    """Run ``cfg``; every recorded answer must come from a true holder."""
    simulation = build_scenario(cfg)
    simulation.run()
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
    records, answers = _answer_correctness(_query_cfg(rebroadcast="counter:2"))
    assert records > 0 and answers > 0


def test_contact_lane_answers_are_truthful():
    cfg = _query_cfg(rebroadcast="contact", query_policy="contact")
    records, answers = _answer_correctness(cfg)
    assert records > 0 and answers > 0


def test_contact_lane_actually_contact_routes():
    cfg = _query_cfg(rebroadcast="contact", query_policy="contact")
    simulation = build_scenario(cfg)
    simulation.run()
    # Repeat zipf queries find learned holders at least once.
    assert simulation.registry.value("card.contact_hits") > 0


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
