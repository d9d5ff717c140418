"""Tests for the physical world: adjacency, BFS hops, churn, caching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import Area, RandomWaypoint, Static
from repro.net import UNREACHABLE, EnergyModel, World
from repro.sim import Simulator

from .helpers import line_positions, make_world


class TestAdjacency:
    def test_line_topology(self):
        sim, world, _ = make_world(line_positions(4, spacing=8.0), radio_range=10.0)
        adj = world.adjacency()
        # 8 m spacing, 10 m range: only consecutive nodes connect.
        expected = np.zeros((4, 4), dtype=bool)
        for i in range(3):
            expected[i, i + 1] = expected[i + 1, i] = True
        assert np.array_equal(adj, expected)

    def test_no_self_links(self):
        _, world, _ = make_world([[0, 0], [1, 0]], radio_range=5)
        assert not world.adjacency().diagonal().any()

    def test_symmetric(self):
        pts = np.random.default_rng(0).random((30, 2)) * 50
        _, world, _ = make_world(pts, radio_range=12)
        adj = world.adjacency()
        assert np.array_equal(adj, adj.T)

    def test_range_boundary_inclusive(self):
        _, world, _ = make_world([[0, 0], [10.0, 0]], radio_range=10.0)
        assert world.adjacency()[0, 1]

    def test_neighbors(self):
        _, world, _ = make_world(line_positions(5, spacing=8.0))
        assert list(world.neighbors(2)) == [1, 3]
        assert list(world.neighbors(0)) == [1]

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
        d = world.hops_from(0)
        assert list(d) == [0, 1, 2, 3, 4]
        assert world.hop_distance(1, 4) == 3

    def test_disconnected(self):
        _, world, _ = make_world([[0, 0], [8, 0], [500, 500]])
        assert world.hop_distance(0, 2) == UNREACHABLE
        assert not world.reachable(0, 2)
        assert world.reachable(0, 1)

    def test_self_distance_zero(self):
        _, world, _ = make_world(line_positions(3))
        assert world.hop_distance(1, 1) == 0

    def test_bfs_matches_networkx(self):
        import networkx as nx

        pts = np.random.default_rng(7).random((40, 2)) * 60
        _, world, _ = make_world(pts, radio_range=15)
        g = nx.from_numpy_array(world.adjacency())
        lengths = nx.single_source_shortest_path_length(g, 5)
        d = world.hops_from(5)
        for j in range(40):
            expected = lengths.get(j, UNREACHABLE)
            assert d[j] == expected

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality_via_bfs(self, seed):
        pts = np.random.default_rng(seed).random((15, 2)) * 40
        _, world, _ = make_world(pts, radio_range=12)
        d0 = world.hops_from(0)
        for j in range(15):
            if d0[j] > 0:
                # some neighbor of j must be exactly one hop closer to 0
                nbrs = world.neighbors(j)
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
        a0 = world.adjacency().copy()
        sim.schedule(500.0, lambda: None)
        sim.run()
        a1 = world.adjacency()
        assert a0.shape == a1.shape  # and no exception: cache rebuilt
        assert world.topology.snapshot_time == 500.0

    def test_bfs_cache_cleared_on_time_change(self):
        sim = Simulator()
        mob = RandomWaypoint(8, Area(30, 30), np.random.default_rng(1), max_pause=0.5)
        world = World(sim, mob, radio_range=8)
        world.hops_from(0)
        assert 0 in world.topology._dist
        sim.schedule(200.0, lambda: None)
        sim.run()
        world.adjacency()
        assert 0 not in world.topology._dist


class TestChurn:
    def test_down_node_has_no_links(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0))
        world.set_down(1)
        adj = world.adjacency()
        assert not adj[1].any() and not adj[:, 1].any()
        assert world.hop_distance(0, 2) == UNREACHABLE

    def test_revive(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0))
        world.set_down(1)
        world.set_down(1, down=False)
        assert world.hop_distance(0, 2) == 2

    def test_is_up_tracks_energy(self):
        _, world, _ = make_world([[0, 0], [5, 0]], capacity=1e-4)
        assert world.is_up(0)
        world.energy.charge_tx(0, 10_000)  # huge frame: drains battery
        assert not world.is_up(0)


class TestLivenessFastPath:
    """The incremental up-set must mirror the reference definition
    (not administratively down, not depleted) through every transition."""

    def test_up_ids_initial(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0))
        assert world.up_ids() == frozenset({0, 1, 2})

    def test_up_ids_tracks_set_down(self):
        _, world, _ = make_world(line_positions(3, spacing=8.0))
        world.set_down(1)
        assert world.up_ids() == frozenset({0, 2})
        world.set_down(1, down=False)
        assert world.up_ids() == frozenset({0, 1, 2})

    def test_depleted_node_cannot_be_revived(self):
        _, world, _ = make_world([[0, 0], [5, 0]], capacity=1e-4)
        world.energy.charge_tx(0, 10_000)
        world.check_depletion()
        world.set_down(0, down=False)  # administrative revival attempt
        assert not world.is_up(0)

    def test_check_depletion_on_administratively_down_node(self):
        _, world, _ = make_world([[0, 0], [5, 0]], capacity=1e-4)
        world.set_down(0)
        world.energy.charge_tx(0, 10_000)
        world.check_depletion()
        assert not world.is_up(0)
        assert world.up_ids() == frozenset({1})

    def test_up_among_filters_in_order_and_is_identity_when_all_up(self):
        import numpy as np

        _, world, _ = make_world(line_positions(5, spacing=8.0))
        ids = np.array([0, 2, 3, 4], dtype=np.int64)
        assert world.up_among(ids) is ids  # nobody down: no copy, no pass
        world.set_down(3)
        assert world.up_among(ids).tolist() == [0, 2, 4]
        world.set_down(3, down=False)
        assert world.up_among(ids) is ids

    def test_is_up_accepts_plain_and_numpy_ints(self):
        import numpy as np

        _, world, _ = make_world(line_positions(2, spacing=8.0))
        world.set_down(np.int64(0))
        assert not world.is_up(0)


class TestEnergyProtocol:
    """Threshold-crossing protocol: crossings are detected at charge
    time and handed out exactly once by poll_depleted()."""

    def test_poll_returns_each_crossing_once(self):
        em = EnergyModel(3, capacity=1e-4)
        assert em.poll_depleted() == ()
        em.charge_tx(1, 10_000)
        assert em.poll_depleted() == (1,)
        assert em.poll_depleted() == ()
        em.charge_rx(1, 10_000)  # still depleted: no second crossing
        assert em.poll_depleted() == ()

    def test_infinite_capacity_never_depletes(self):
        em = EnergyModel(2)
        em.charge_tx(0, 10**9)
        assert not em.finite
        assert em.alive(0)
        assert em.poll_depleted() == ()
        assert em.resync() == ()

    def test_on_depleted_fires_once_per_node(self):
        em = EnergyModel(3, capacity=1e-4)
        fired = []
        em.on_depleted = fired.append
        em.charge_tx(2, 10_000)
        em.charge_rx(2, 10_000)
        assert fired == [2]

    def test_charge_rx_many_equals_per_node_charges(self):
        import numpy as np

        one, many = EnergyModel(4, capacity=1e-3), EnergyModel(4, capacity=1e-3)
        nodes = np.array([0, 2, 3], dtype=np.int64)
        one.charge_tx(2, 200)  # 850 uJ: node 2 crosses 1 mJ on its second rx
        many.charge_tx(2, 200)
        for size in (48, 64):
            for node in nodes.tolist():
                one.charge_rx(node, size)
            many.charge_rx_many(nodes, size)
        assert np.array_equal(one.consumed, many.consumed)  # bitwise
        assert np.array_equal(one.rx_count, many.rx_count)
        assert many.poll_depleted() == one.poll_depleted() == (2,)

    def test_resync_after_bulk_edit(self):
        em = EnergyModel(3, capacity=1.0)
        em.consumed[0] = 2.0  # direct edit, bypassing charge_*
        assert em.alive(0)  # stale until resync
        assert em.resync() == (0,)
        assert not em.alive(0)
        assert em.poll_depleted() == (0,)
        assert em.resync() == ()  # idempotent

    def test_alive_agrees_with_depleted_mask(self):
        em = EnergyModel(4, capacity=1e-4)
        em.charge_tx(1, 10_000)
        em.charge_rx(3, 10_000)
        mask = em.depleted()
        for i in range(4):
            assert em.alive(i) == (not mask[i])
