"""Tests for connection-lifetime tracking."""

import numpy as np
import pytest

from repro.core import Connection
from repro.metrics.lifetimes import (
    ClosedConnection,
    LifetimeLog,
    _median,
    lifetime_summary,
)

from .overlay_helpers import build_overlay


def closed(owner=0, peer=1, random=False, initiator=True, t0=10.0, t1=40.0):
    return ClosedConnection(owner, peer, random, initiator, t0, t1)


class TestLifetimeLog:
    def test_record_from_connection(self):
        log = LifetimeLog()
        conn = Connection(peer=3, random=True, initiator=True)
        conn.established_at = 5.0
        log.record(owner=1, conn=conn, closed_at=25.0)
        assert len(log) == 1
        rec = log.closed[0]
        assert rec.lifetime == 20.0
        assert rec.random and rec.initiator and rec.owner == 1 and rec.peer == 3

    def test_summary_by_class(self):
        log = LifetimeLog()
        log.closed = [
            closed(t0=0, t1=100, random=False),
            closed(t0=0, t1=200, random=False),
            closed(t0=0, t1=30, random=True),
            closed(t0=0, t1=50, random=True, initiator=False),  # acceptor: skip
        ]
        s = lifetime_summary(log)
        assert s["regular"]["count"] == 2
        assert s["regular"]["mean"] == 150.0
        assert s["random"]["count"] == 1
        assert s["random"]["mean"] == 30.0

    def test_empty_class_is_nan(self):
        s = lifetime_summary(LifetimeLog())
        assert s["regular"]["count"] == 0
        assert np.isnan(s["regular"]["mean"])


@pytest.mark.parametrize(
    "values",
    [
        [3.0],
        [5.5, 1.25, 9.0],
        [2.0, 1.0],
        [0.1, 0.7, 0.2, 1e-9],
        [4.0, 4.0, 4.0, 1.0, 4.0, 4.0],
        [7.0, 7.0, 7.0, 7.0],
        [1e308, 1.7e308],
        "rng-odd",
        "rng-even",
        "rng-duplicates",
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered")  # both sides give inf
def test_median_equals_numpy_bit_for_bit(values):
    rng = np.random.default_rng(3)
    if values == "rng-odd":
        values = rng.exponential(40.0, size=101)
    elif values == "rng-even":
        values = rng.exponential(40.0, size=1000)
    elif values == "rng-duplicates":
        values = rng.integers(0, 4, size=500) * 0.1
    values = np.asarray(values, dtype=np.float64)
    got, want = _median(values), float(np.median(values))
    assert got.hex() == want.hex()
    assert type(got) is float


class TestIntegration:
    def test_closures_logged_in_live_overlay(self):
        from repro.metrics.lifetimes import LifetimeLog

        pts = [[10, 10], [15, 10]]
        sim, world, overlay, _ = build_overlay(pts, algorithm="regular")
        log = LifetimeLog()
        for s in overlay.servents.values():
            s.lifetime_log = log
        overlay.start(queries=False)
        sim.run(until=60.0)
        world.set_down(1)
        sim.run(until=300.0)
        assert len(log) >= 1
        rec = log.closed[0]
        assert rec.lifetime > 0
