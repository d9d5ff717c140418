"""Stateful (rule-based) property tests for the core data structures.

Hypothesis drives random operation sequences against the connection
table and the AODV route table, checking the structural invariants after
every step -- the strongest guard against state-machine corruption bugs.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.aodv import SEQ_UNKNOWN, RouteTable
from repro.core import Connection, ConnectionTable

MAX_CONN = 3


class ConnectionTableMachine(RuleBasedStateMachine):
    """Random add/remove/clear sequences against a mirror model."""

    def __init__(self):
        super().__init__()
        self.table = ConnectionTable(owner=0, max_connections=MAX_CONN)
        self.model = {}  # peer -> random flag

    @rule(peer=st.integers(1, 8), random=st.booleans())
    def add(self, peer, random):
        ok = self.table.add(Connection(peer=peer, random=random))
        if peer in self.model or len(self.model) >= MAX_CONN:
            assert not ok
        else:
            assert ok
            self.model[peer] = random

    @rule(peer=st.integers(1, 8))
    def remove(self, peer):
        conn = self.table.remove(peer)
        if peer in self.model:
            assert conn is not None and conn.peer == peer
            del self.model[peer]
        else:
            assert conn is None

    @rule()
    def clear(self):
        dropped = self.table.clear()
        assert sorted(c.peer for c in dropped) == sorted(self.model)
        self.model.clear()

    @invariant()
    def capacity_respected(self):
        assert self.table.count <= MAX_CONN
        assert self.table.is_full == (self.table.count == MAX_CONN)

    @invariant()
    def contents_match_model(self):
        assert sorted(self.table.peers()) == sorted(self.model)
        assert self.table.has_random() == any(self.model.values())


class RouteTableMachine(RuleBasedStateMachine):
    """Random offer/invalidate/expire sequences; freshness must hold."""

    def __init__(self):
        super().__init__()
        self.table = RouteTable(owner=0)
        self.now = 0.0
        # dest -> best seq ever accepted (monotonicity check)
        self.best_seq = {}

    @rule(
        dest=st.integers(1, 5),
        next_hop=st.integers(1, 5),
        hops=st.integers(1, 10),
        seq=st.integers(0, 20),
        life=st.floats(1.0, 50.0),
    )
    def offer(self, dest, next_hop, hops, seq, life):
        accepted = self.table.offer(
            dest, next_hop, hops, seq, expires_at=self.now + life, now=self.now
        )
        entry = self.table.get(dest)
        assert entry is not None
        if accepted:
            assert entry.dest_seq == seq and entry.next_hop == next_hop
        # Sequence numbers stored never go backwards.
        prev = self.best_seq.get(dest, SEQ_UNKNOWN)
        assert entry.dest_seq >= prev or entry.dest_seq == SEQ_UNKNOWN
        self.best_seq[dest] = max(prev, entry.dest_seq)

    @rule(dest=st.integers(1, 5))
    def invalidate(self, dest):
        before = self.table.get(dest)
        # invalidate() mutates the entry in place: snapshot validity first
        was_valid = before is not None and before.valid
        out = self.table.invalidate(dest)
        if was_valid:
            assert out is not None and not out.valid
        else:
            assert out is None

    @rule(dt=st.floats(0.1, 30.0))
    def advance_time(self, dt):
        self.now += dt

    @invariant()
    def lookup_only_returns_live_routes(self):
        for dest in range(1, 6):
            entry = self.table.lookup(dest, self.now)
            if entry is not None:
                assert entry.valid
                assert entry.expires_at >= self.now


TestConnectionTableStateful = ConnectionTableMachine.TestCase
TestConnectionTableStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestRouteTableStateful = RouteTableMachine.TestCase
TestRouteTableStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
