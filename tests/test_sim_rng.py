"""Tests for deterministic RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngRegistry
from repro.sim.rng import stable_key


class TestStableKey:
    def test_deterministic(self):
        assert stable_key("mobility") == stable_key("mobility")

    def test_distinct_names_distinct_keys(self):
        names = ["mobility", "query", "files", "jitter", "placement"]
        keys = {stable_key(n) for n in names}
        assert len(keys) == len(names)

    def test_fits_in_63_bits(self):
        for n in ("", "a", "x" * 1000):
            assert 0 <= stable_key(n) < 2**63


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("m").random(8)
        b = RngRegistry(42).stream("m").random(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("m").random(8)
        b = RngRegistry(2).stream("m").random(8)
        assert not np.array_equal(a, b)

    def test_different_names_differ(self):
        reg = RngRegistry(7)
        assert not np.array_equal(reg.stream("a").random(8), reg.stream("b").random(8))

    def test_stream_is_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("x") is reg.stream("x")

    def test_creation_order_irrelevant(self):
        r1 = RngRegistry(5)
        r1.stream("first")
        v1 = r1.stream("second").random()
        r2 = RngRegistry(5)
        v2 = r2.stream("second").random()
        assert v1 == v2

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("abc")  # type: ignore[arg-type]

    @given(st.integers(0, 2**32), st.text(min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_reproducible_for_any_seed_and_name(self, seed, name):
        a = RngRegistry(seed).stream(name).integers(0, 1 << 30, size=4)
        b = RngRegistry(seed).stream(name).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
