"""Tests for load-balance metrics (Gini, Lorenz, Jain)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import gini, jain_fairness, load_balance_report, lorenz_curve

loads = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50
)


class TestGini:
    def test_uniform_is_zero(self):
        assert gini(np.full(10, 7.0)) == pytest.approx(0.0, abs=1e-12)

    def test_concentrated_approaches_one(self):
        v = np.zeros(100)
        v[0] = 1.0
        assert gini(v) == pytest.approx(0.99, abs=1e-9)

    def test_known_value(self):
        # loads 1,2,3,4 -> G = 0.25
        assert gini(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(0.25)

    def test_degenerate_inputs(self):
        assert gini(np.array([])) == 0.0
        assert gini(np.array([5.0])) == 0.0
        assert gini(np.zeros(5)) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini(np.array([1.0, -1.0]))

    @given(loads)
    @example([8.490396760439255e-159, 8.490396760439255e-159])  # subnormal squares
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, values):
        g = gini(np.array(values))
        assert -1e-9 <= g < 1.0

    @given(loads, st.floats(min_value=0.1, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant(self, values, scale):
        v = np.array(values)
        assert gini(v) == pytest.approx(gini(v * scale), abs=1e-9)


class TestLorenz:
    def test_endpoints(self):
        x, y = lorenz_curve(np.array([1.0, 2.0, 3.0]))
        assert x[0] == y[0] == 0.0
        assert x[-1] == pytest.approx(1.0) and y[-1] == pytest.approx(1.0)

    def test_uniform_is_diagonal(self):
        x, y = lorenz_curve(np.full(4, 2.0))
        assert np.allclose(x, y)

    def test_curve_below_diagonal(self):
        x, y = lorenz_curve(np.array([1.0, 1.0, 10.0]))
        assert (y <= x + 1e-12).all()

    def test_monotone(self):
        _, y = lorenz_curve(np.array([3.0, 1.0, 2.0]))
        assert (np.diff(y) >= 0).all()

    def test_zero_loads(self):
        x, y = lorenz_curve(np.zeros(3))
        assert np.allclose(x, y)


class TestJain:
    def test_uniform_is_one(self):
        assert jain_fairness(np.full(8, 3.0)) == pytest.approx(1.0)

    def test_concentrated_is_one_over_n(self):
        v = np.zeros(10)
        v[0] = 5.0
        assert jain_fairness(v) == pytest.approx(0.1)

    def test_empty_and_zero(self):
        assert jain_fairness(np.array([])) == 1.0
        assert jain_fairness(np.zeros(4)) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness(np.array([-1.0]))

    @given(loads)
    @example([8.490396760439255e-159, 8.490396760439255e-159])  # subnormal squares
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, values):
        v = np.array(values)
        j = jain_fairness(v)
        assert 1.0 / len(values) - 1e-9 <= j <= 1.0 + 1e-9


class TestReport:
    def test_bundle(self):
        rep = load_balance_report(np.array([1.0, 2.0, 3.0, 4.0]))
        assert rep["gini"] == pytest.approx(0.25)
        assert rep["max_share"] == pytest.approx(0.4)
        assert rep["mean"] == pytest.approx(2.5)
        assert rep["max"] == 4.0

    def test_gini_orders_algorithms_like_the_paper(self):
        # A hybrid-like skewed load has a higher Gini than a
        # regular-like even load -- the §7.4 argument, quantified.
        even = np.array([10.0, 11, 9, 10, 10, 10])
        skewed = np.array([40.0, 38, 5, 4, 6, 5])
        assert gini(skewed) > gini(even) + 0.2
