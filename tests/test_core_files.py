"""Tests for Zipf file placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FileStore, place_files, zipf_frequencies


class TestZipfFrequencies:
    def test_paper_values(self):
        f = zipf_frequencies(20, 0.4)
        assert f[0] == pytest.approx(0.4)
        assert f[1] == pytest.approx(0.2)
        assert f[2] == pytest.approx(0.4 / 3)

    def test_monotone_decreasing(self):
        f = zipf_frequencies(50, 0.4)
        assert all(a > b for a, b in zip(f, f[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_frequencies(0, 0.4)
        with pytest.raises(ValueError):
            zipf_frequencies(10, 0.0)
        with pytest.raises(ValueError):
            zipf_frequencies(10, 1.5)


class TestPlacement:
    def test_counts_match_zipf(self):
        members = list(range(100))
        holdings = place_files(members, 20, 0.4, np.random.default_rng(0))
        counts = {k: 0 for k in range(1, 21)}
        for files in holdings.values():
            for f in files:
                counts[f] += 1
        assert counts[1] == 40  # 40% of 100
        assert counts[2] == 20
        assert counts[4] == 10

    def test_every_file_exists_somewhere(self):
        members = list(range(10))
        holdings = place_files(members, 20, 0.4, np.random.default_rng(1))
        present = set().union(*holdings.values())
        assert present == set(range(1, 21))

    def test_file_ids_one_based(self):
        holdings = place_files(range(30), 5, 0.4, np.random.default_rng(2))
        for files in holdings.values():
            assert all(1 <= f <= 5 for f in files)

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            place_files([], 5, 0.4, np.random.default_rng(0))

    def test_deterministic(self):
        a = place_files(range(40), 10, 0.4, np.random.default_rng(7))
        b = place_files(range(40), 10, 0.4, np.random.default_rng(7))
        assert a == b

    @given(st.integers(2, 60), st.integers(1, 25), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_placement_counts_bounded(self, n_members, n_files, seed):
        holdings = place_files(
            range(n_members), n_files, 0.4, np.random.default_rng(seed)
        )
        counts = {}
        for files in holdings.values():
            for f in files:
                counts[f] = counts.get(f, 0) + 1
        for rank, c in counts.items():
            expected = max(1, round(0.4 / rank * n_members))
            assert c == min(expected, n_members)


class TestFileStore:
    def test_has_add(self):
        s = FileStore(0, {1, 3})
        assert s.has(1) and not s.has(2)
        s.add(2)
        assert s.has(2)
        assert sorted(s._files) == [1, 2, 3]
        assert len(s) == 3

    def test_empty_store(self):
        s = FileStore(1)
        assert not s.has(1) and len(s) == 0
