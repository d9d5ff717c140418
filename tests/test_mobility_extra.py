"""Tests for the extra mobility models (Gauss-Markov, Random Direction)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import Area, GaussMarkov, RandomDirection

from .helpers import in_area


def rng(seed=0):
    return np.random.default_rng(seed)


class TestGaussMarkov:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussMarkov(3, Area(), rng(), alpha=1.5)
        with pytest.raises(ValueError):
            GaussMarkov(3, Area(), rng(), mean_speed=0)
        with pytest.raises(ValueError):
            GaussMarkov(3, Area(), rng(), update_interval=0)

    @given(st.integers(0, 300), st.floats(0.0, 2000.0))
    @settings(max_examples=30, deadline=None)
    def test_stays_in_area(self, seed, t):
        area = Area(100, 100)
        m = GaussMarkov(6, area, rng(seed))
        assert in_area(area, m.positions(t)).all()

    def test_moves_continuously(self):
        m = GaussMarkov(8, Area(), rng(1))
        p0, p1 = m.positions(0.0), m.positions(60.0)
        moved = np.hypot(*(p1 - p0).T)
        assert (moved > 0.5).sum() >= 6

    def test_temporal_correlation(self):
        # With alpha near 1, consecutive segments point the same way far
        # more often than with alpha near 0.
        def mean_turn(alpha, seed=3):
            m = GaussMarkov(
                1, Area(10_000, 10_000), rng(seed), alpha=alpha, update_interval=5.0,
                margin=0.0,
            )
            # place node at the centre so boundary steering never kicks in
            m._origin[0] = m._dest[0] = np.array([5000.0, 5000.0])
            pts = [m.positions(t)[0].copy() for t in np.arange(0, 400, 5.0)]
            headings = [
                np.arctan2(b[1] - a[1], b[0] - a[0])
                for a, b in zip(pts, pts[1:])
                if np.hypot(*(b - a)) > 1e-9
            ]
            turns = np.abs(np.diff(np.unwrap(headings)))
            return turns.mean()

        assert mean_turn(0.95) < mean_turn(0.05)

    def test_speed_clipped_positive(self):
        m = GaussMarkov(5, Area(), rng(2), speed_sigma=5.0)
        m.positions(500.0)  # drive many updates
        assert (m._speed > 0).all()


class TestRandomDirection:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomDirection(2, Area(), rng(), min_speed=0)
        with pytest.raises(ValueError):
            RandomDirection(2, Area(), rng(), max_pause=-1)

    @given(st.integers(0, 300), st.floats(0.0, 3000.0))
    @settings(max_examples=30, deadline=None)
    def test_stays_in_area(self, seed, t):
        area = Area(60, 60)
        m = RandomDirection(5, area, rng(seed))
        assert in_area(area, m.positions(t)).all()

    def test_legs_end_on_boundary(self):
        m = RandomDirection(1, Area(50, 50), rng(7), max_pause=0.001)
        # run through several segments; destinations of moving legs must
        # lie on the boundary
        boundary_hits = 0
        for _ in range(40):
            t_end = float(m._t1[0])
            m.positions(t_end + 1e-6)  # force the next segment
            dest = m._dest[0]
            on_edge = (
                dest[0] < 1e-6
                or dest[0] > 50 - 1e-6
                or dest[1] < 1e-6
                or dest[1] > 50 - 1e-6
            )
            if on_edge:
                boundary_hits += 1
        assert boundary_hits >= 15  # moving legs all end at edges

    def test_deterministic(self):
        a = RandomDirection(4, Area(), rng(9)).positions(777.0)
        b = RandomDirection(4, Area(), rng(9)).positions(777.0)
        assert np.array_equal(a, b)


class TestScenarioIntegration:
    def test_all_mobility_options_build(self):
        from repro.mobility import GaussMarkov as GM
        from repro.mobility import RandomDirection as RD
        from repro.scenarios import ScenarioConfig, build_scenario

        for name, cls in (
            ("direction", RD),
            ("gauss-markov", GM),
        ):
            s = build_scenario(ScenarioConfig(num_nodes=10, mobility=name))
            assert isinstance(s.mobility, cls)
