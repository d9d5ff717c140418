"""Unit and property tests for mobility models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import Area, RandomWaypoint, Static

from .helpers import in_area


def rng(seed=0):
    return np.random.default_rng(seed)


class TestArea:
    def test_dimensions(self):
        a = Area(100, 50)
        assert a.width == 100 and a.height == 50

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Area(0, 10)
        with pytest.raises(ValueError):
            Area(10, -1)

    def test_sample_inside(self):
        a = Area(30, 70)
        pts = a.sample(rng(), 500)
        assert pts.shape == (500, 2)
        assert in_area(a, pts).all()

    def test_contains_boundary(self):
        a = Area(10, 10)
        assert in_area(a, np.array([[0.0, 0.0], [10.0, 10.0]])).all()
        assert not in_area(a, np.array([[10.1, 5.0]])).any()


class TestStatic:
    def test_positions_never_change(self):
        m = Static(5, Area(), rng())
        p0 = m.positions(0.0)
        p1 = m.positions(3600.0)
        assert np.array_equal(p0, p1)

    def test_explicit_positions(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = Static(2, Area(), rng(), positions=pts)
        assert np.array_equal(m.positions(100.0), pts)

    def test_explicit_positions_shape_checked(self):
        with pytest.raises(ValueError):
            Static(3, Area(), rng(), positions=np.zeros((2, 2)))

    def test_explicit_positions_in_area(self):
        with pytest.raises(ValueError):
            Static(1, Area(10, 10), rng(), positions=np.array([[50.0, 5.0]]))


class TestRandomWaypoint:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            RandomWaypoint(3, Area(), rng(), max_speed=1.0, min_speed=2.0)
        with pytest.raises(ValueError):
            RandomWaypoint(3, Area(), rng(), min_speed=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint(3, Area(), rng(), max_pause=-1)

    def test_positions_shape(self):
        m = RandomWaypoint(7, Area(), rng())
        assert m.positions(12.3).shape == (7, 2)

    def test_deterministic_given_seed(self):
        a = RandomWaypoint(5, Area(), rng(9)).positions(500.0)
        b = RandomWaypoint(5, Area(), rng(9)).positions(500.0)
        assert np.array_equal(a, b)

    def test_nodes_eventually_move(self):
        m = RandomWaypoint(20, Area(), rng(1), max_pause=10.0)
        p0 = m.positions(0.0)
        p1 = m.positions(600.0)
        moved = np.hypot(*(p1 - p0).T) > 1e-6
        assert moved.sum() >= 15  # overwhelming majority after 10 pause-maxes

    def test_speed_bounded(self):
        m = RandomWaypoint(10, Area(), rng(3), max_speed=1.0, max_pause=5.0)
        prev = m.positions(0.0)
        for t in np.arange(1.0, 200.0, 1.0):
            cur = m.positions(float(t))
            step = np.hypot(*(cur - prev).T)
            assert (step <= 1.0 + 1e-9).all()  # cannot exceed max_speed * dt
            prev = cur

    @given(st.integers(0, 1000), st.floats(0.0, 5000.0))
    @settings(max_examples=40, deadline=None)
    def test_stays_in_area(self, seed, t):
        area = Area(100, 100)
        m = RandomWaypoint(8, area, rng(seed))
        assert in_area(area, m.positions(t)).all()

    def test_queries_can_jump_far_ahead(self):
        m = RandomWaypoint(4, Area(), rng(5), max_pause=1.0)
        p = m.positions(10_000.0)  # many segments per node in one refresh
        assert in_area(Area(), p).all()


class TestPiecewiseLinearity:
    def test_position_linear_within_segment(self):
        # Within one movement segment, positions interpolate linearly:
        # p(mid) == (p(a) + p(b)) / 2 when [a,b] lies inside a segment.
        m = RandomWaypoint(1, Area(), rng(7), max_pause=0.001, min_speed=0.5)
        # t in [0.01, 1.0] is inside the first movement leg (pause <= 1ms,
        # legs last many seconds at these speeds on a 100 m area).
        pa, pm, pb = m.positions(0.2)[0], m.positions(0.5)[0], m.positions(0.8)[0]
        assert np.allclose(pm, (pa + pb) / 2, atol=1e-9)

    def test_monotone_queries_consistent_with_jump(self):
        # Stepping through time or jumping straight to t must agree.
        m1 = RandomWaypoint(6, Area(), rng(11))
        for t in np.arange(0.0, 300.0, 7.0):
            m1.positions(float(t))
        stepped = m1.positions(300.0)
        m2 = RandomWaypoint(6, Area(), rng(11))
        jumped = m2.positions(300.0)
        assert np.allclose(stepped, jumped)
