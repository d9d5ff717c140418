"""Tests for the connection (reference) table."""

import pytest

from repro.core import Connection, ConnectionTable


def conn(peer, **kw):
    return Connection(peer=peer, **kw)


class TestCapacity:
    def test_cap_enforced(self):
        t = ConnectionTable(owner=0, max_connections=2)
        assert t.add(conn(1))
        assert t.add(conn(2))
        assert not t.add(conn(3))
        assert t.count == 2 and t.is_full

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ConnectionTable(0, 0)

    def test_self_connection_rejected(self):
        t = ConnectionTable(0, 3)
        with pytest.raises(ValueError):
            t.add(conn(0))

    def test_duplicate_rejected(self):
        t = ConnectionTable(0, 3)
        assert t.add(conn(1))
        assert not t.add(conn(1))
        assert t.count == 1


class TestRemoval:
    def test_remove_returns_connection(self):
        t = ConnectionTable(0, 3)
        c = conn(1, random=True)
        t.add(c)
        assert t.remove(1) is c
        assert t.remove(1) is None
        assert not t.has(1)

    def test_remove_frees_slot(self):
        t = ConnectionTable(0, 1)
        t.add(conn(1))
        t.remove(1)
        assert t.add(conn(2))

    def test_clear(self):
        t = ConnectionTable(0, 3)
        t.add(conn(1))
        t.add(conn(2))
        dropped = t.clear()
        assert len(dropped) == 2 and t.count == 0


class TestRandomConnections:
    def test_random_tracking(self):
        t = ConnectionTable(0, 3)
        t.add(conn(1))
        assert not t.has_random()
        t.add(conn(2, random=True))
        assert t.has_random()
        assert [c.peer for c in t if c.random] == [2]

    def test_peers_order_stable(self):
        t = ConnectionTable(0, 5)
        for p in (3, 1, 4):
            t.add(conn(p))
        assert t.peers() == [3, 1, 4]

    def test_iter_is_snapshot_safe(self):
        t = ConnectionTable(0, 3)
        t.add(conn(1))
        t.add(conn(2))
        for c in t:
            t.remove(c.peer)  # must not blow up mid-iteration
        assert t.count == 0
