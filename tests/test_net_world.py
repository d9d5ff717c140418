"""Tests for the physical world: adjacency, BFS hops, churn, caching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import Area, RandomWaypoint, Static
from repro.net import UNREACHABLE, EnergyModel, World
from repro.scenarios import ScenarioConfig, run_scenario
from repro.sim import Simulator

from .helpers import line_positions, make_world


class TestAdjacency:
    def test_line_topology(self):
        sim, world, _ = make_world(line_positions(4, spacing=8.0), radio_range=10.0)
        adj = world.topology.adjacency_matrix()
        # 8 m spacing, 10 m range: only consecutive nodes connect.
        expected = np.zeros((4, 4), dtype=bool)
        for i in range(3):
            expected[i, i + 1] = expected[i + 1, i] = True
        assert np.array_equal(adj, expected)

    def test_no_self_links(self):
        _, world, _ = make_world([[0, 0], [1, 0]], radio_range=5)
        assert not world.topology.adjacency_matrix().diagonal().any()

    def test_symmetric(self):
        pts = np.random.default_rng(0).random((30, 2)) * 50
        _, world, _ = make_world(pts, radio_range=12)
        adj = world.topology.adjacency_matrix()
        assert np.array_equal(adj, adj.T)

    def test_range_boundary_inclusive(self):
        _, world, _ = make_world([[0, 0], [10.0, 0]], radio_range=10.0)
        assert world.topology.adjacency_matrix()[0, 1]

    def test_neighbors(self):
        _, world, _ = make_world(line_positions(5, spacing=8.0))
        assert list(world.topology.neighbors(2)) == [1, 3]
        assert list(world.topology.neighbors(0)) == [1]

    def test_invalid_range(self):
        sim = Simulator()
        mob = Static(2, Area(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            World(sim, mob, radio_range=0)

    def test_energy_size_mismatch(self):
        sim = Simulator()
        mob = Static(3, Area(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            World(sim, mob, energy=EnergyModel(2))


class TestHops:
    def test_line_hops(self):
        _, world, _ = make_world(line_positions(5, spacing=8.0))
        d = world.topology.hops_from(0)
        assert list(d) == [0, 1, 2, 3, 4]
        assert world.topology.hop_distance(1, 4) == 3

    def test_disconnected(self):
        _, world, _ = make_world([[0, 0], [8, 0], [500, 500]])
        assert world.topology.hop_distance(0, 2) == UNREACHABLE
        assert world.topology.hop_distance(0, 1) == 1

    def test_self_distance_zero(self):
        _, world, _ = make_world(line_positions(3))
        assert world.topology.hop_distance(1, 1) == 0

    def test_bfs_matches_networkx(self):
        import networkx as nx

        pts = np.random.default_rng(7).random((40, 2)) * 60
        _, world, _ = make_world(pts, radio_range=15)
        g = nx.from_numpy_array(world.topology.adjacency_matrix())
        lengths = nx.single_source_shortest_path_length(g, 5)
        d = world.topology.hops_from(5)
        for j in range(40):
            expected = lengths.get(j, UNREACHABLE)
            assert d[j] == expected

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality_via_bfs(self, seed):
        pts = np.random.default_rng(seed).random((15, 2)) * 40
        _, world, _ = make_world(pts, radio_range=12)
        d0 = world.topology.hops_from(0)
        for j in range(15):
            if d0[j] > 0:
                # some neighbor of j must be exactly one hop closer to 0
                nbrs = world.topology.neighbors(j)
                assert any(d0[k] == d0[j] - 1 for k in nbrs)


class TestCaching:
    def test_positions_cached_per_time(self):
        sim = Simulator()
        mob = RandomWaypoint(10, Area(), np.random.default_rng(0))
        world = World(sim, mob)
        p1 = world.positions()
        p2 = world.positions()
        assert p1 is p2  # same snapshot object while clock unchanged

    def test_adjacency_refreshes_with_time(self):
        sim = Simulator()
        mob = RandomWaypoint(10, Area(20, 20), np.random.default_rng(3), max_pause=1.0)
        world = World(sim, mob, radio_range=5)
        a0 = world.topology.adjacency_matrix().copy()
        sim.schedule(500.0, lambda: None)
        sim.run()
        a1 = world.topology.adjacency_matrix()
        assert a0.shape == a1.shape  # and no exception: cache rebuilt
        assert world.topology.snapshot_time == 500.0

    def test_bfs_cache_cleared_on_time_change(self):
        sim = Simulator()
        mob = RandomWaypoint(8, Area(30, 30), np.random.default_rng(1), max_pause=0.5)
        world = World(sim, mob, radio_range=8)
        world.topology.hops_from(0)
        assert 0 in world.topology._dist
        sim.schedule(200.0, lambda: None)
        sim.run()
        world.topology.adjacency_matrix()
        assert 0 not in world.topology._dist


class TestChurn:
    def test_down_node_has_no_links(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0))
        world.set_down(1)
        adj = world.topology.adjacency_matrix()
        assert not adj[1].any() and not adj[:, 1].any()
        assert world.topology.hop_distance(0, 2) == UNREACHABLE

    def test_revive(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0))
        world.set_down(1)
        world.set_down(1, down=False)
        assert world.topology.hop_distance(0, 2) == 2

    def test_is_up_tracks_energy(self):
        _, world, _ = make_world([[0, 0], [5, 0]], capacity=1e-4)
        assert world.is_up(0)
        world.energy.charge_tx(0, 10_000)  # huge frame: drains battery
        assert not world.is_up(0)


def _up_ids(world):
    """The up-set as ``is_up`` answers it, frozen."""
    return frozenset(i for i in range(world.n) if world.is_up(i))


class TestLivenessFastPath:
    """The incremental up-set must mirror the reference definition
    (not administratively down, not depleted) through every transition."""

    def test_up_ids_initial(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0))
        assert _up_ids(world) == frozenset({0, 1, 2})

    def test_up_ids_tracks_set_down(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0))
        world.set_down(1)
        assert _up_ids(world) == frozenset({0, 2})
        world.set_down(1, down=False)
        assert _up_ids(world) == frozenset({0, 1, 2})

    def test_depleted_node_cannot_be_revived(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0), capacity=1e-4)
        world.energy.charge_tx(1, 10_000)  # drains node 1, the only relay
        world.set_down(1, down=False)  # administrative revival attempt
        assert not world.is_up(1)
        # ... and it does not come back as a relay either.
        assert world.down_mask()[1]
        assert list(world.topology.neighbors(0)) == []
        assert world.topology.hop_distance(0, 2) == UNREACHABLE

    def test_check_depletion_on_administratively_down_node(self):
        # Depleting a node that churn already took down keeps it down,
        # and a later revival leaves it down.
        _, world, _ = make_world([[0, 0], [5, 0]], capacity=1e-4)
        world.set_down(0)
        world.energy.charge_tx(0, 10_000)
        assert not world.is_up(0)
        assert _up_ids(world) == frozenset({1})
        world.set_down(0, down=False)
        assert _up_ids(world) == frozenset({1})
        assert world.down_mask()[0]

    def test_up_among_filters_in_order_and_is_identity_when_all_up(self):
        _, world, _ = make_world(line_positions(5, spacing=8.0))
        ids = [0, 2, 3, 4]
        assert world.up_among(ids) is ids  # nobody down: no copy, no pass
        world.set_down(3)
        assert world.up_among(ids) == [0, 2, 4]
        assert ids == [0, 2, 3, 4]
        world.set_down(3, down=False)
        assert world.up_among(ids) is ids

    def test_is_up_accepts_plain_and_numpy_ints(self):
        import numpy as np

        _, world, _ = make_world(line_positions(2, spacing=8.0))
        world.set_down(np.int64(0))
        assert not world.is_up(0)


class TestEnergyProtocol:
    """Threshold-crossing protocol: crossings are detected at charge
    time and signalled exactly once, inside that charge, through
    on_depleted()."""

    def test_infinite_capacity_never_depletes(self):
        em = EnergyModel(2)
        fired = []
        em.on_depleted = fired.append
        em.charge_tx(0, 10**9)
        em.charge_rx_many(np.array([0, 1], dtype=np.int64), 10**9)
        assert not em.finite
        assert em.alive(0) and em.alive(1)
        assert fired == []

    def test_on_depleted_fires_once_per_node(self):
        em = EnergyModel(3, capacity=1e-4)
        fired = []
        em.on_depleted = fired.append
        em.charge_tx(2, 10_000)
        em.charge_rx(2, 10_000)
        assert fired == [2]

    def test_charge_rx_many_equals_per_node_charges(self):
        one, many = EnergyModel(4, capacity=1e-3), EnergyModel(4, capacity=1e-3)
        fired_one, fired_many = [], []
        one.on_depleted = fired_one.append
        many.on_depleted = fired_many.append
        nodes = np.array([0, 2, 3], dtype=np.int64)
        one.charge_tx(2, 200)  # 850 uJ: node 2 crosses 1 mJ on its second rx
        many.charge_tx(2, 200)
        for size in (48, 64):
            for node in nodes.tolist():
                one.charge_rx(node, size)
            many.charge_rx_many(nodes, size)
        assert np.array_equal(one.consumed, many.consumed)  # bitwise
        assert np.array_equal(one.rx_count, many.rx_count)
        assert fired_many == fired_one == [2]

    def test_charges_equal_numpy_ledger(self):
        # Reference: the float64-array ledger (scalar add per tx, one
        # fancy-indexed add per rx batch, then crossings in batch order).
        rng = np.random.default_rng(5)
        em = EnergyModel(6, capacity=2e-3)
        fired = []
        em.on_depleted = fired.append
        consumed = np.zeros(6)
        tx = np.zeros(6, dtype=np.int64)
        rx = np.zeros(6, dtype=np.int64)
        ref_fired = []
        for _ in range(40):
            src = int(rng.integers(6))
            size = int(rng.integers(20, 120))
            em.charge_tx(src, size)
            consumed[src] += em.tx_fixed + em.tx_per_byte * size
            tx[src] += 1
            if consumed[src] >= em.capacity and src not in ref_fired:
                ref_fired.append(src)
            nodes = np.sort(rng.choice(6, size=3, replace=False))
            em.charge_rx_many(nodes.tolist(), size)
            consumed[nodes] += em.rx_fixed + em.rx_per_byte * size
            rx[nodes] += 1
            for node in nodes[consumed[nodes] >= em.capacity].tolist():
                if node not in ref_fired:
                    ref_fired.append(node)
        assert np.array_equal(em.consumed, consumed)  # bitwise
        assert np.array_equal(em.tx_count, tx)
        assert np.array_equal(em.rx_count, rx)
        assert em.total_consumed() == float(consumed.sum())
        assert fired == ref_fired and len(fired) > 1

    def test_ledger_views_are_read_only_snapshots(self):
        em = EnergyModel(3)
        em.charge_tx(1, 100)
        consumed, tx, rx = em.consumed, em.tx_count, em.rx_count
        assert consumed.dtype == np.float64
        assert tx.dtype == rx.dtype == np.int64
        for view in (consumed, tx, rx):
            with pytest.raises(ValueError):
                view[0] = 1
        em.charge_rx_many([0, 1], 100)
        assert list(rx) == [0, 0, 0]  # a snapshot, not a live view
        assert list(em.rx_count) == [1, 1, 0]
        assert em.consumed.copy().flags.writeable

    def test_alive_agrees_with_depleted_mask(self):
        em = EnergyModel(4, capacity=1e-4)
        em.charge_tx(1, 10_000)
        em.charge_rx(3, 10_000)
        mask = em.depleted()
        for i in range(4):
            assert em.alive(i) == (not mask[i])


# ----------------------------------------------------------------------
# pinned finite-energy runs: depletion order
# ----------------------------------------------------------------------
#: ``RunResult`` events, ``energy.sum()`` and ``counters`` of four runs
#: in which a third to two thirds of the nodes drain, recorded at
#: 14ef157 -- when a send charged the sender before it fixed the
#: receiver set, and a poll after each send took drained nodes down.
#: Fixing the receiver set first and taking a node down inside the
#: charge that drains it must keep every value.  The ``topology.*``
#: cache-effort counters are the grid backend's (it runs at every n),
#: ``topology.csr_builds`` included; that one rose and
#: ``topology.delta_rebuilds`` / ``moved_nodes`` left when a refresh
#: became keep-or-rebuild.  When AODV's route requests moved onto a flood
#: plane, ``aodv.rreq_keys_live`` became ``flood.ids_live{plane=aodv.rreq}``
#: and that plane's ``flood.originated`` / ``forwarded`` / ``duplicates``
#: joined; with the plane keeping ids for PATH_DISCOVERY_TIME (3.2 s),
#: the live count is the old table's again.  Every other value stayed.
PINNED_FINITE_ENERGY = {
    "aodv-regular": (
        dict(num_nodes=50, duration=300.0, seed=1, energy_capacity=0.05),
        11092,
        1.959330000000003,
        {
            "alg.connections_closed{alg=regular}": 162,
            "alg.connections_established{alg=regular}": 166, "alg.pings_sent{alg=regular}": 309,
            "flood.ids_live{plane=aodv.rreq}": 5,
            "flood.originated{plane=aodv.rreq}": 1082, "flood.forwarded{plane=aodv.rreq}": 1359,
            "flood.duplicates{plane=aodv.rreq}": 2530, "energy.consumed": 1.959330000000003,
            "flood.duplicates{plane=p2p.flood}": 607, "flood.forwarded{plane=p2p.flood}": 399,
            "flood.ids_live{plane=p2p.flood}": 8, "flood.originated{plane=p2p.flood}": 509,
            "graphfast.bfs_sources{layer=metrics}": 38,
            "graphfast.triangle_runs{layer=metrics}": 1, "kernel.events_daemon": 0,
            "kernel.events_dispatched": 11092, "kernel.events_skipped": 0, "kernel.heap": 116,
            "kernel.heap_compactions": 0, "kernel.heap_pushes": 8377,
            "net.frames_delivered{layer=radio}": 7404, "net.frames_sent{layer=radio}": 4959,
            "overlay.connections": 4, "overlay.members": 38, "p2p.flood_hops.count": 313,
            "p2p.flood_hops.max": 5, "p2p.flood_hops.min": 1, "p2p.flood_hops.sum": 463,
            "p2p.received{family=connect}": 768, "p2p.received{family=other}": 0,
            "p2p.received{family=ping}": 455, "p2p.received{family=query}": 169,
            "p2p.received{family=transfer}": 0, "routing.data_forwarded{protocol=aodv}": 412,
            "routing.rerr_sent{protocol=aodv}": 62,
            "routing.rrep_sent{protocol=aodv}": 505, "routing.rreq_sent{protocol=aodv}": 1082,
            "topology.csr_builds{layer=topology}": 492,
            "topology.dist_cache_hits{layer=topology}": 3,
            "topology.rebuilds{layer=topology}": 505,
        },
    ),
    "lossy-basic": (
        dict(num_nodes=50, duration=300.0, seed=7, algorithm="basic", mac="lossy",
             energy_capacity=0.05),
        11826,
        2.098280000000002,
        {
            "alg.connections_closed{alg=basic}": 152,
            "alg.connections_established{alg=basic}": 154, "alg.pings_sent{alg=basic}": 442,
            "flood.ids_live{plane=aodv.rreq}": 1,
            "flood.originated{plane=aodv.rreq}": 1551, "flood.forwarded{plane=aodv.rreq}": 1158,
            "flood.duplicates{plane=aodv.rreq}": 1621, "energy.consumed": 2.098280000000002,
            "flood.duplicates{plane=p2p.flood}": 837, "flood.forwarded{plane=p2p.flood}": 662,
            "flood.ids_live{plane=p2p.flood}": 39, "flood.originated{plane=p2p.flood}": 1114,
            "graphfast.bfs_sources{layer=metrics}": 38,
            "graphfast.triangle_runs{layer=metrics}": 1, "kernel.events_daemon": 0,
            "kernel.events_dispatched": 11826, "kernel.events_skipped": 0, "kernel.heap": 115,
            "kernel.heap_compactions": 0, "kernel.heap_pushes": 9921,
            "net.frames_delivered{layer=lossy}": 7086, "net.frames_sent{layer=lossy}": 6101,
            "net.losses{layer=lossy}": 1022, "overlay.connections": 2, "overlay.members": 38,
            "p2p.flood_hops.count": 397, "p2p.flood_hops.max": 5, "p2p.flood_hops.min": 1,
            "p2p.flood_hops.sum": 555, "p2p.received{family=connect}": 977,
            "p2p.received{family=other}": 0, "p2p.received{family=ping}": 588,
            "p2p.received{family=query}": 78, "p2p.received{family=transfer}": 0,
            "routing.data_forwarded{protocol=aodv}": 240,
            "routing.rerr_sent{protocol=aodv}": 309, "routing.rrep_sent{protocol=aodv}": 578,
            "routing.rreq_sent{protocol=aodv}": 1551,
            "topology.csr_builds{layer=topology}": 630,
            "topology.dist_cache_hits{layer=topology}": 0,
            "topology.rebuilds{layer=topology}": 648,
        },
    ),
    "dsr-regular": (
        dict(num_nodes=50, duration=300.0, seed=9, routing="dsr", energy_capacity=0.05),
        11259,
        2.0835050000000033,
        {
            "alg.connections_closed{alg=regular}": 214,
            "alg.connections_established{alg=regular}": 226, "alg.pings_sent{alg=regular}": 421,
            "energy.consumed": 2.0835050000000033, "flood.duplicates{plane=p2p.flood}": 1137,
            "flood.forwarded{plane=p2p.flood}": 609, "flood.ids_live{plane=p2p.flood}": 10,
            "flood.originated{plane=p2p.flood}": 547, "graphfast.bfs_sources{layer=metrics}": 38,
            "graphfast.triangle_runs{layer=metrics}": 1, "kernel.events_daemon": 0,
            "kernel.events_dispatched": 11259, "kernel.events_skipped": 0, "kernel.heap": 120,
            "kernel.heap_compactions": 0, "kernel.heap_pushes": 8275,
            "net.frames_delivered{layer=radio}": 7819, "net.frames_sent{layer=radio}": 5297,
            "overlay.connections": 12, "overlay.members": 38, "p2p.flood_hops.count": 462,
            "p2p.flood_hops.max": 5, "p2p.flood_hops.min": 1, "p2p.flood_hops.sum": 703,
            "p2p.received{family=connect}": 1250, "p2p.received{family=other}": 0,
            "p2p.received{family=ping}": 641, "p2p.received{family=query}": 228,
            "p2p.received{family=transfer}": 0, "routing.data_forwarded{protocol=dsr}": 564,
            "routing.rerr_sent{protocol=dsr}": 101, "routing.rrep_sent{protocol=dsr}": 323,
            "routing.rreq_sent{protocol=dsr}": 623, "routing.salvaged{protocol=dsr}": 11,
            "topology.csr_builds{layer=topology}": 463,
            "topology.dist_cache_hits{layer=topology}": 1,
            "topology.rebuilds{layer=topology}": 517,
        },
    ),
    "counter2": (
        dict(num_nodes=50, duration=300.0, seed=11, rebroadcast="counter:2",
             energy_capacity=0.04),
        11610,
        1.6940760000000001,
        {
            "alg.connections_closed{alg=regular}": 148,
            "alg.connections_established{alg=regular}": 152, "alg.pings_sent{alg=regular}": 266,
            "flood.ids_live{plane=aodv.rreq}": 2,
            "flood.originated{plane=aodv.rreq}": 1036, "flood.forwarded{plane=aodv.rreq}": 1253,
            "flood.duplicates{plane=aodv.rreq}": 2085, "energy.consumed": 1.6940760000000001,
            "flood.assessment_cancels{plane=aodv.rreq}": 40,
            "flood.assessment_cancels{plane=p2p.flood}": 10,
            "flood.duplicates{plane=p2p.flood}": 537, "flood.forwarded{plane=p2p.flood}": 372,
            "flood.ids_live{plane=p2p.flood}": 9, "flood.originated{plane=p2p.flood}": 500,
            "flood.suppressed{plane=aodv.rreq}": 40, "flood.suppressed{plane=p2p.flood}": 10,
            "graphfast.bfs_sources{layer=metrics}": 38,
            "graphfast.triangle_runs{layer=metrics}": 1, "kernel.events_daemon": 0,
            "kernel.events_dispatched": 11610, "kernel.events_skipped": 50, "kernel.heap": 116,
            "kernel.heap_compactions": 0, "kernel.heap_pushes": 9361,
            "net.frames_delivered{layer=radio}": 6438, "net.frames_sent{layer=radio}": 4339,
            "overlay.connections": 4, "overlay.members": 38, "p2p.flood_hops.count": 300,
            "p2p.flood_hops.max": 6, "p2p.flood_hops.min": 1, "p2p.flood_hops.sum": 452,
            "p2p.received{family=connect}": 728, "p2p.received{family=other}": 0,
            "p2p.received{family=ping}": 390, "p2p.received{family=query}": 97,
            "p2p.received{family=transfer}": 0, "routing.data_forwarded{protocol=aodv}": 311,
            "routing.rerr_sent{protocol=aodv}": 72,
            "routing.rrep_sent{protocol=aodv}": 428, "routing.rreq_sent{protocol=aodv}": 1036,
            "topology.csr_builds{layer=topology}": 462,
            "topology.dist_cache_hits{layer=topology}": 1,
            "topology.rebuilds{layer=topology}": 476,
        },
    ),
}


@pytest.mark.parametrize("lane", sorted(PINNED_FINITE_ENERGY))
def test_finite_energy_run_is_pinned(lane):
    fields, events, energy_total, counters = PINNED_FINITE_ENERGY[lane]
    result = run_scenario(ScenarioConfig(**fields))
    assert result.events == events
    assert float(result.energy.sum()) == energy_total
    assert result.counters == counters
