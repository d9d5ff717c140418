"""Unit and property tests for the discrete-event kernel.

The kernel keeps its pending events in a ``heapq`` list of ``(time,
priority, seq, event)`` tuples and, for handle-free posts
(``Simulator.post_at``), a FIFO of plain tuples beside it; every read
merges the two heads.  The order it must produce is stated by
:class:`RefSimulator` below: one list re-sorted by ``(time, priority,
seq)`` before every pop, with the same lazy-cancellation accounting, in
which a post is an ordinary NORMAL event whose handle is dropped.
``TestAgainstReference`` drives random op programs through both.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Registry
from repro.scenarios import ScenarioConfig, build_scenario, run_scenario
from repro.scenarios.runner import harvest
from repro.sim import Event, Priority, SimulationError, Simulator
from repro.sim.kernel import MIN_COMPACT_SIZE

from .helpers import brute_pending, iter_pending


def kernel_count(sim, name):
    """A ``kernel.*`` registry reading (the one place counters are read)."""
    return sim.registry.value(f"kernel.{name}")


# The two ids are the queue lanes these tests ran on while the kernel
# had a calendar queue beside the heap.  Both build the same Simulator
# now; the ids only keep the test names stable for the tier-1 floor
# list, and the parametrisation goes at its next re-anchor.
@pytest.fixture(params=["calendar", "heap"])
def make_sim():
    return Simulator


def test_unknown_queue_kind_rejected():
    # No knob selects a queue: the keyword itself is gone.
    with pytest.raises(TypeError):
        Simulator(queue="calendar")


class TestScheduling:
    def test_clock_starts_at_zero(self, make_sim):
        assert make_sim().now == 0.0

    def test_custom_start_time(self, make_sim):
        assert make_sim(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self, make_sim):
        sim = make_sim()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, make_sim):
        sim = make_sim()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_same_time_fifo_order(self, make_sim):
        sim = make_sim()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_priority_breaks_ties(self, make_sim):
        sim = make_sim()
        fired = []
        sim.schedule(1.0, fired.append, "low", priority=Priority.LOW)
        sim.schedule(1.0, fired.append, "high", priority=Priority.HIGH)
        sim.schedule(1.0, fired.append, "normal", priority=Priority.NORMAL)
        sim.run()
        assert fired == ["high", "normal", "low"]

    def test_negative_delay_rejected(self, make_sim):
        with pytest.raises(SimulationError):
            make_sim().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, make_sim):
        sim = make_sim()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_delay_rejected(self):
        # NaN passes a ``delay < 0`` guard and would break the heap
        # invariant silently; the error names the value.
        with pytest.raises(SimulationError, match="nan"):
            Simulator().schedule(float("nan"), lambda: None)

    def test_nan_absolute_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending() == 0 and kernel_count(sim, "heap_pushes") == 0

    def test_infinite_time_is_legal_and_never_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(math.inf, fired.append, "never")
        sim.schedule(1.0, fired.append, "a")
        sim.run(until=1e12)
        assert fired == ["a"]
        assert sim.now == 1e12
        assert sim.pending() == 1 and sim.peek_time() == math.inf

    def test_zero_delay_event_fires(self, make_sim):
        sim = make_sim()
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_events_scheduled_during_run_fire(self, make_sim):
        sim = make_sim()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, make_sim):
        sim = make_sim()
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []
        assert kernel_count(sim, "events_skipped") == 1

    def test_cancel_mid_run(self, make_sim):
        sim = make_sim()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self, make_sim):
        sim = make_sim()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        ev.cancel()
        assert sim.pending() == 1

    def test_heap_compacts_when_cancelled_dominate(self, make_sim):
        sim = make_sim()
        events = [sim.schedule(10.0, lambda: None) for _ in range(200)]
        for ev in events[:150]:
            ev.cancel()
        # cancelled entries exceeded half the queue -> compacted away
        assert kernel_count(sim, "heap_compactions") >= 1
        assert kernel_count(sim, "heap") < 200
        assert sim.pending() == 50
        sim.run()
        assert kernel_count(sim, "events_dispatched") == 50
        assert kernel_count(sim, "events_skipped") == 150  # skipped-on-pop + purged

    def test_double_cancel_counted_once(self, make_sim):
        sim = make_sim()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim._cancelled_pending == 1
        sim.run()
        assert kernel_count(sim, "events_skipped") == 1

class TestRunControl:
    def test_until_inclusive(self, make_sim):
        sim = make_sim()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.schedule(3.0, fired.append, 3)
        sim.run(until=2.0)
        assert fired == [1, 2]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 2, 3]

    def test_until_advances_clock_without_events(self, make_sim):
        sim = make_sim()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events(self, make_sim):
        sim = make_sim()
        fired = []
        for i in range(5):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_event_or_none(self, make_sim):
        sim = make_sim()
        sim.schedule(1.0, lambda: None)
        assert sim.step() is not None
        assert sim.step() is None

    def test_run_not_reentrant(self, make_sim):
        sim = make_sim()
        err = []

        def reenter():
            try:
                sim.run()
            except SimulationError as e:
                err.append(e)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(err) == 1

    def test_peek_time(self, make_sim):
        sim = make_sim()
        assert sim.peek_time() is None
        ev = sim.schedule(4.0, lambda: None)
        sim.schedule(7.0, lambda: None)
        assert sim.peek_time() == 4.0
        ev.cancel()
        assert sim.peek_time() == 7.0


class TestPendingFastPath:
    """pending() is an O(1) incremental count; it must always agree with
    the brute-force queue scan, including around cancellation edge cases."""

    def test_agrees_with_brute_force(self, make_sim):
        sim = make_sim()
        events = [sim.schedule(float(i % 7), lambda: None) for i in range(50)]
        assert sim.pending() == brute_pending(sim) == 50
        for ev in events[::3]:
            ev.cancel()
        assert sim.pending() == brute_pending(sim)
        sim.run()
        assert sim.pending() == brute_pending(sim) == 0

    def test_agrees_while_stepping(self, make_sim):
        sim = make_sim()
        for i in range(20):
            sim.schedule(float(i), lambda: None)
        while sim.step() is not None:
            assert sim.pending() == brute_pending(sim)

    def test_cancel_after_dispatch_is_noop(self, make_sim):
        # Timeout handles are routinely cancelled after firing; the done
        # flag must keep that from corrupting the incremental count.
        sim = make_sim()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        ev.cancel()
        ev.cancel()
        assert sim.pending() == brute_pending(sim) == 1
        assert kernel_count(sim, "events_skipped") == 0

    def test_cancel_survives_compaction(self, make_sim):
        sim = make_sim()
        events = [sim.schedule(10.0, lambda: None) for _ in range(200)]
        for ev in events[:150]:
            ev.cancel()
        assert kernel_count(sim, "heap_compactions") >= 1
        assert sim.pending() == brute_pending(sim) == 50

    def test_stats_pending_matches(self, make_sim):
        sim = make_sim()
        sim.schedule(1.0, lambda: None)
        assert sim.pending() == 1
        assert kernel_count(sim, "heap_pushes") == 1


class TestEventWeight:
    """Batched delivery events carry weight=k so events_dispatched stays
    identical to the per-receiver reference lane."""

    def test_weight_counts_as_k_dispatches(self, make_sim):
        sim = make_sim()
        sim.schedule(1.0, lambda: None, weight=5)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert kernel_count(sim, "events_dispatched") == 6
        assert kernel_count(sim, "heap_pushes") == 2

    def test_daemon_weight_excluded_from_dispatched(self, make_sim):
        sim = make_sim()
        sim.schedule(1.0, lambda: None, weight=3, daemon=True)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert kernel_count(sim, "events_dispatched") == 1
        assert kernel_count(sim, "events_daemon") == 3

    def test_weight_below_one_rejected(self, make_sim):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None, weight=0)
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None, weight=-2)


class TestOnePushBody:
    """``schedule``, ``schedule_at`` and ``post_at``'s out-of-order branch
    push through one positional body: the same entries, counters and
    dispatch order whichever public call made them."""

    PLAN = [
        (0.5, ("a",), {}),
        (0.0, ("b",), {"priority": Priority.HIGH}),
        (1.25, ("c", 1), {"weight": 3}),
        (0.5, ("d",), {"daemon": True}),
        (0.5, (), {"priority": 7}),
        (2, ("f",), {"priority": Priority.LOW, "weight": 2, "daemon": True}),
    ]

    @staticmethod
    def _entry(item):
        time, priority, seq, ev = item
        # ``fn`` is each simulator's own log; the rest must be equal
        fields = (ev.time, ev.priority, ev.seq, ev.args, ev.cancelled, ev.daemon)
        return time, priority, seq, fields + (ev.weight, ev.done, type(time))

    def _run(self, how):
        sim = Simulator(start_time=2.5)
        log = []

        def record(*args):
            log.append(args)

        for delay, args, kw in self.PLAN:
            if how == "schedule":
                sim.schedule(delay, record, *args, **kw)
            else:
                sim.schedule_at(sim.now + delay, record, *args, **kw)
        entries = sorted(self._entry(item) for item in sim._heap)
        pushes = kernel_count(sim, "heap_pushes")
        sim.run()
        counters = {
            name: kernel_count(sim, name)
            for name in ("heap_pushes", "events_dispatched", "events_daemon", "heap")
        }
        return entries, pushes, counters, log

    def test_schedule_equals_schedule_at_now_plus_delay(self):
        by_schedule = self._run("schedule")
        assert by_schedule == self._run("schedule_at")
        entries, pushes, counters, log = by_schedule
        assert pushes == len(self.PLAN) and counters["events_dispatched"] == 6
        assert log == [("b",), ("a",), ("d",), (), ("c", 1), ("f",)]

    @pytest.mark.parametrize(
        "delay, kw", [(float("nan"), {}), (-1e-9, {}), (-1.0, {}), (1.0, {"weight": 0})]
    )
    def test_schedule_still_rejects(self, delay, kw):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None, **kw)
        assert sim.pending() == 0 and kernel_count(sim, "heap_pushes") == 0
        assert sim.schedule(0.0, lambda: None).seq == 0  # no seq was spent

    def test_post_behind_the_tail_lands_on_the_heap_as_an_event(self):
        sim = Simulator()
        fired = []
        sim.post_at(3.0, fired.append, ("tail",))
        sim.post_at(1.5, fired.append, ("early",), 2)
        assert (len(sim._fifo), len(sim._heap)) == (1, 1)
        time, priority, seq, ev = sim._heap[0]
        assert isinstance(ev, Event)
        assert (time, priority, seq) == (1.5, Priority.NORMAL, 1)
        assert (ev.time, ev.priority, ev.seq, ev.args, ev.weight) == (1.5, Priority.NORMAL, 1, ("early",), 2)
        assert not ev.daemon and not ev.cancelled and not ev.done
        assert kernel_count(sim, "heap_pushes") == 2
        sim.run()
        assert fired == ["early", "tail"] and ev.done
        assert kernel_count(sim, "events_dispatched") == 3


class TestPost:
    """``post_at``: a NORMAL event with no handle, kept off the heap
    while posts come in time order."""

    def test_in_order_posts_stay_off_the_heap(self):
        sim = Simulator()
        fired = []
        sim.post_at(1.0, fired.append, ("a",))
        sim.post_at(1.0, fired.append, ("b",), 3)
        sim.post_at(2.0, fired.append, ("c",))
        assert (len(sim._fifo), len(sim._heap)) == (3, 0)
        assert sim.pending() == brute_pending(sim) == 3
        assert kernel_count(sim, "heap") == kernel_count(sim, "heap_pushes") == 3
        sim.run()
        assert fired == ["a", "b", "c"]
        assert kernel_count(sim, "events_dispatched") == 5
        assert sim.now == 2.0 and sim.pending() == 0

    def test_an_earlier_post_falls_back_to_the_heap(self):
        sim = Simulator()
        fired = []
        sim.post_at(2.0, fired.append, ("late",))
        sim.post_at(1.0, fired.append, ("early",))
        sim.post_at(2.0, fired.append, ("tail",))
        assert (len(sim._fifo), len(sim._heap)) == (2, 1)
        sim.run()
        assert fired == ["early", "late", "tail"]
        assert kernel_count(sim, "heap_pushes") == 3

    def test_posts_interleave_with_scheduled_events(self):
        # One (time, priority, seq) order across both structures.
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "s0")
        sim.post_at(1.0, fired.append, ("p1",))
        sim.schedule_at(1.0, fired.append, "low", priority=Priority.LOW)
        sim.schedule_at(1.0, fired.append, "s3")
        sim.post_at(1.0, fired.append, ("p4",))
        sim.schedule_at(1.0, fired.append, "high", priority=Priority.HIGH)
        sim.post_at(0.5, fired.append, ("first",))
        sim.run()
        assert fired == ["first", "high", "s0", "p1", "s3", "p4", "low"]

    def test_bad_times_and_weights_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        for time in (0.5, float("nan")):
            with pytest.raises(SimulationError):
                sim.post_at(time, print)
        with pytest.raises(SimulationError):
            sim.post_at(2.0, print, (), 0)
        assert sim.pending() == 0 and kernel_count(sim, "heap_pushes") == 1

    def test_step_and_peek_see_the_fifo(self):
        sim = Simulator()
        fired = []
        sim.post_at(3.0, fired.append, ("p",), 2)
        early = sim.schedule(1.0, fired.append, "cancelled")
        early.cancel()
        assert sim.peek_time() == 3.0
        ev = sim.step()
        assert fired == ["p"] and sim.now == 3.0
        assert (ev.time, ev.priority, ev.weight, ev.args) == (3.0, Priority.NORMAL, 2, ("p",))
        assert ev.fn == fired.append and ev.done and not ev.daemon
        ev.cancel()  # a record of a dispatched entry: nothing to revoke
        assert sim.pending() == brute_pending(sim) == 0
        assert sim.step() is None and sim.peek_time() is None
        assert kernel_count(sim, "events_skipped") == 1

    def test_iter_pending_yields_posts_as_detached_records(self):
        sim = Simulator()
        sim.post_at(1.0, print, ("x",))
        sim.schedule(2.0, print)
        posted = [ev for ev in iter_pending(sim) if ev.time == 1.0]
        assert len(posted) == 1 and posted[0].args == ("x",)
        posted[0].cancel()
        assert sim.pending() == brute_pending(sim) == 2
        assert kernel_count(sim, "events_skipped") == 0

    def test_compaction_threshold_counts_fifo_entries(self):
        # 70 heap entries with 36 cancelled outnumber the heap's live
        # ones, not the live entries of heap and FIFO together.
        ops = [
            ("post", [1.0] * 40, 1, ("none",)),
            ("burst", 70, 2.0, 36),
            ("peek",),
        ]
        seen = _play(Simulator(), ops)
        assert seen == _play(RefSimulator(), ops)
        assert seen[-1][10] == 0  # heap_compactions
        assert seen[-1][4] == seen[-1][5] == 74


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_dispatch_order_is_sorted(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.integers(0, 2)),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_order_time_priority_seq(self, items):
        sim = Simulator()
        for d, p in items:
            sim.schedule(d, lambda: None, priority=p)
        order = []
        while True:
            ev = sim.step()
            if ev is None:
                break
            order.append(_key(ev))
        assert order == sorted(order)

    @given(st.integers(0, 2**31), st.data())
    @settings(max_examples=25, deadline=None)
    def test_clock_monotone(self, seed, data):
        sim = Simulator()
        times = []
        n = data.draw(st.integers(1, 30))
        import numpy as np

        rng = np.random.default_rng(seed)
        for d in rng.random(n) * 50:
            sim.schedule(float(d), lambda: times.append(sim.now))
        sim.run()
        assert all(a <= b for a, b in zip(times, times[1:]))


# ----------------------------------------------------------------------
# reference kernel: the order and the accounting, stated naively
# ----------------------------------------------------------------------
def _key(ev):
    return (ev.time, ev.priority, ev.seq)


class RefEvent:
    def __init__(self, owner, time, priority, seq, fn, args, daemon, weight):
        self.owner = owner
        self.time, self.priority, self.seq = time, priority, seq
        self.fn, self.args = fn, args
        self.daemon, self.weight = daemon, weight
        self.cancelled = self.done = False

    def cancel(self):
        if not (self.cancelled or self.done):
            self.cancelled = True
            self.owner._note_cancel()


class RefSimulator:
    """The kernel's contract over a plain list, re-sorted by
    ``(time, priority, seq)`` before every read of its head."""

    def __init__(self):
        self.now = 0.0
        self.entries = []  # queued RefEvents, cancelled ones included
        self.seq = 0
        self.cancelled_pending = 0
        # the kernel's counters, under the kernel's registry names
        self.registry = Registry()
        counter = self.registry.counter
        self.dispatched = counter("kernel.events_dispatched")
        self.daemon = counter("kernel.events_daemon")
        self.skipped = counter("kernel.events_skipped")
        self.pushes = counter("kernel.heap_pushes")
        self.compactions = counter("kernel.heap_compactions")
        self.registry.gauge("kernel.heap", fn=lambda: float(len(self.entries)))

    def schedule(self, delay, fn, *args, **kw):
        return self.schedule_at(self.now + delay, fn, *args, **kw)

    def schedule_at(self, time, fn, *args, priority=1, daemon=False, weight=1):
        ev = RefEvent(self, float(time), int(priority), self.seq, fn, args, daemon, weight)
        self.seq += 1
        self.entries.append(ev)
        self.pushes.value += 1
        return ev

    def _note_cancel(self):
        self.cancelled_pending += 1
        size = len(self.entries)
        if size >= MIN_COMPACT_SIZE and self.cancelled_pending * 2 > size:
            self.compact()

    def compact(self):
        live = [ev for ev in self.entries if not ev.cancelled]
        purged = len(self.entries) - len(live)
        if purged:
            self.entries = live
            self.skipped.value += purged
            self.compactions.value += 1
        self.cancelled_pending = 0

    def _head(self):
        """Next live entry, dropping cancelled ones in front of it."""
        self.entries.sort(key=_key)
        while self.entries and self.entries[0].cancelled:
            self.entries.pop(0).done = True
            self.skipped.value += 1
            self.cancelled_pending = max(0, self.cancelled_pending - 1)
        return self.entries[0] if self.entries else None

    def peek_time(self):
        head = self._head()
        return None if head is None else head.time

    def post_at(self, time, fn, args=(), weight=1):
        """A NORMAL event whose handle nobody keeps."""
        self.schedule_at(time, fn, *args, weight=weight)

    def step(self):
        ev = self._head()
        if ev is None:
            return None
        self.entries.pop(0)
        self.now = ev.time
        ev.done = True
        if ev.daemon:
            self.daemon.value += ev.weight
        else:
            self.dispatched.value += ev.weight
        ev.fn(*ev.args)
        return ev

    def run(self, until=None, max_events=None):
        dispatched = 0
        while True:
            nxt = self.peek_time()
            if nxt is None or (until is not None and nxt > until):
                break
            if max_events is not None and dispatched >= max_events:
                break
            self.step()
            dispatched += 1
        if until is not None and self.now < until:
            self.now = until

    def pending(self):
        return sum(1 for ev in self.entries if not ev.cancelled)


#: Few distinct values, so same-time entries, zero delays and events
#: exactly at a ``run(until=...)`` horizon are the common case.
_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])
_PRIORITIES = st.sampled_from(list(Priority))

#: Delays of consecutive posts: equal, rising or falling times, so both
#: the FIFO append and its heap fallback are hit.
_POST_DELAYS = st.lists(_DELAYS, min_size=1, max_size=4)

#: What a handler does when it fires, from inside the running kernel.
_ACTIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("spawn"), st.lists(st.tuples(_DELAYS, _PRIORITIES), max_size=3)),
    st.tuples(st.just("spawn_at_now"), _PRIORITIES),
    st.tuples(st.just("post"), _POST_DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
)

_OPS = st.one_of(
    st.tuples(
        st.just("schedule"), _DELAYS, _PRIORITIES, st.booleans(), st.integers(1, 4), _ACTIONS
    ),
    st.tuples(st.just("post"), _POST_DELAYS, st.integers(1, 4), _ACTIONS),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    # a deep queue, then cancels among it: above half, the heap compacts
    st.tuples(
        st.just("burst"),
        st.integers(MIN_COMPACT_SIZE, MIN_COMPACT_SIZE + 30),
        _DELAYS,
        st.integers(0, MIN_COMPACT_SIZE + 30),
    ),
    st.just(("step",)),
    st.just(("peek",)),
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("run_max"), st.integers(0, 5)),
    st.just(("run",)),
)


def _play(sim, ops):
    """Run one op program on ``sim``; returns what was observable after
    every op (identical code drives the kernel and the reference)."""
    log = []  # (label, now) per fired handler
    handles = []  # cancellable events only: a post has no handle
    labels = itertools.count()
    seen = []

    def add(time_fn, arg, priority, daemon=False, weight=1, action=("none",)):
        handles.append(
            time_fn(
                arg, fire, next(labels), action, priority=priority, daemon=daemon, weight=weight
            )
        )

    def post(delays, weight=1, action=("none",)):
        for delay in delays:
            sim.post_at(sim.now + delay, fire, (next(labels), action), weight)

    def cancel(index):
        if handles:
            handles[index % len(handles)].cancel()

    def fire(label, action):
        log.append((label, sim.now))
        if action[0] == "spawn":
            for delay, priority in action[1]:
                add(sim.schedule, delay, priority)
        elif action[0] == "spawn_at_now":
            add(sim.schedule_at, sim.now, action[1])
        elif action[0] == "post":
            post(action[1])
        elif action[0] == "cancel":
            cancel(action[1])

    for op in ops:
        result = None
        if op[0] == "schedule":
            _, delay, priority, daemon, weight, action = op
            add(sim.schedule, delay, priority, daemon, weight, action)
        elif op[0] == "post":
            _, delays, weight, action = op
            post(delays, weight, action)
        elif op[0] == "cancel":
            cancel(op[1])
        elif op[0] == "burst":
            _, count, delay, cancels = op
            for i in range(count):
                add(sim.schedule, delay + (i % 3), Priority.NORMAL)
            for i in range(min(cancels, count)):
                cancel(len(handles) - 1 - i)
        elif op[0] == "step":
            ev = sim.step()
            result = None if ev is None else _key(ev)
        elif op[0] == "peek":
            result = sim.peek_time()
        elif op[0] == "run_until":
            sim.run(until=sim.now + op[1])
        elif op[0] == "run_max":
            sim.run(max_events=op[1])
        else:
            sim.run()
        seen.append(
            (
                op[0],
                result,
                list(log),
                sim.now,
                sim.pending(),
                brute_pending(sim) if isinstance(sim, Simulator) else sim.pending(),
                kernel_count(sim, "events_dispatched"),
                kernel_count(sim, "events_daemon"),
                kernel_count(sim, "events_skipped"),
                kernel_count(sim, "heap_pushes"),
                kernel_count(sim, "heap_compactions"),
                kernel_count(sim, "heap"),
            )
        )
    return seen


class TestAgainstReference:
    @given(st.lists(_OPS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_random_programs_match_the_sorted_list(self, ops):
        assert _play(Simulator(), ops) == _play(RefSimulator(), ops)

    def test_compaction_during_run_matches(self):
        # A handler cancels most of a deep queue mid-run: the compaction
        # rebuilds the list the running loop is reading.
        ops = [
            ("burst", MIN_COMPACT_SIZE + 20, 1.0, MIN_COMPACT_SIZE // 2 + 10),
            ("schedule", 0.5, Priority.HIGH, False, 1, ("cancel", 3)),
            ("run_until", 2.0),
            ("run",),
        ]
        seen = _play(Simulator(), ops)
        assert seen == _play(RefSimulator(), ops)
        assert seen[-1][10] >= 1  # heap_compactions: one happened mid-run


class SteppedSimulator(Simulator):
    """The kernel with ``run()`` written over the public ``peek_time()``
    and ``step()``: the loop the bench's traced child puts in place of
    ``run()``, plus the ``max_events`` check that
    ``run()`` itself makes."""

    def run(self, until=None, max_events=None):
        dispatched = 0
        while True:
            nxt = self.peek_time()
            if nxt is None or (until is not None and nxt > until):
                break
            if max_events is not None and dispatched >= max_events:
                break
            self.step()
            dispatched += 1
        if until is not None and self.now < until:
            self._now = until


#: A program that opens on a deep queue and cancels among it, so the
#: ops after it run over compactions, mid-run ones included.
_BURSTY_PROGRAMS = st.builds(
    lambda burst, ops: [burst, *ops],
    st.tuples(
        st.just("burst"),
        st.integers(2 * MIN_COMPACT_SIZE, 3 * MIN_COMPACT_SIZE),
        _DELAYS,
        st.integers(MIN_COMPACT_SIZE, 3 * MIN_COMPACT_SIZE),
    ),
    st.lists(_OPS, max_size=30),
)


class TestFusedRunLoop:
    """``run()`` drains the queue in one loop; it must dispatch exactly
    what a ``peek_time()`` / ``step()`` loop dispatches."""

    @given(st.one_of(st.lists(_OPS, min_size=1, max_size=40), _BURSTY_PROGRAMS))
    @settings(max_examples=300, deadline=None)
    def test_run_equals_the_peek_step_loop(self, ops):
        seen = _play(Simulator(), ops)
        assert seen == _play(SteppedSimulator(), ops)
        # the derived live count agrees with the O(queue) scan throughout
        assert all(row[4] == row[5] for row in seen)

    def test_bursts_compact_on_both_loops(self):
        ops = [
            ("burst", 3 * MIN_COMPACT_SIZE, 1.0, 2 * MIN_COMPACT_SIZE),
            ("schedule", 0.5, Priority.HIGH, False, 1, ("cancel", 7)),
            ("burst", 2 * MIN_COMPACT_SIZE, 0.0, 2 * MIN_COMPACT_SIZE),
            ("run_until", 1.0),
            ("run_max", 3),
            ("run",),
        ]
        seen = _play(Simulator(), ops)
        assert seen == _play(SteppedSimulator(), ops)
        assert seen[-1][10] >= 2  # heap_compactions
        assert seen[-1][4] == seen[-1][5] == 0


def _harvest_dict(cfg, stepped, monkeypatch):
    """``build_scenario`` + ``run`` + ``harvest(...).to_dict()`` minus
    the host-dependent ``obs.manifest`` / ``obs.wall``, the run driven by
    ``run()`` or by a ``peek_time()`` / ``step()`` loop."""
    with monkeypatch.context() as patch:
        if stepped:
            patch.setattr(Simulator, "run", SteppedSimulator.run)
        simulation = build_scenario(cfg)
        simulation.run()
    result = harvest(simulation).to_dict()
    for host_dependent in ("manifest", "wall"):
        result.get("obs", {}).pop(host_dependent, None)
    return result


@pytest.mark.parametrize(
    "overrides",
    [{"num_nodes": 50}, {"mac": "csma", "rebroadcast": "counter:2"}],
    ids=["regular-aodv-50", "csma-counter2"],
)
def test_radio_loaded_scenario_runs_the_same_stepped(overrides, monkeypatch):
    """Whole runs, radio copies in the FIFO, through the loop that
    replaces ``run()`` when a run is traced: the harvest, cost counters
    included, equals the fused loop's."""
    cfg = ScenarioConfig(duration=60.0, seed=2, obs_interval=15.0, **overrides)
    fused = _harvest_dict(cfg, False, monkeypatch)
    counters = fused["obs"]["counters"]
    assert sum(v for k, v in counters.items() if k.startswith("net.frames_sent")) > 1000
    assert _harvest_dict(cfg, True, monkeypatch) == fused


def test_no_python_level_ordering_calls_on_events(monkeypatch):
    """Count-based guard: the heap orders ``(time, priority, seq, ...)``
    tuples in C and never reaches the Event, and the merge of the heap's
    head with the FIFO's ``(time, priority, seq, fn, ...)`` head never
    reaches the callback, so no Python comparison runs per push or pop
    however deep the queue is."""
    assert not hasattr(Event, "sort_key")
    calls = []

    def probe(name):
        def compare(self, other):
            calls.append(name)
            return NotImplemented

        return compare

    class Callback:
        """A posted callback that records any comparison reaching it."""

        def __init__(self, fn):
            self.fn = fn

        def __call__(self, *args):
            return self.fn(*args)

    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        setattr(Callback, name, probe(f"fifo{name}"))
        if name != "__eq__":
            assert name not in vars(Event)
            monkeypatch.setattr(Event, name, probe(name), raising=False)
    post_at = Simulator.post_at
    posts = []

    def probed_post_at(self, time, fn, args=(), weight=1):
        posts.append(time)
        post_at(self, time, Callback(fn), args, weight)

    monkeypatch.setattr(Simulator, "post_at", probed_post_at)
    result = run_scenario(ScenarioConfig(num_nodes=40, duration=20.0, seed=3))
    assert result.events > 500 and len(posts) > 300
    assert calls == []
    # the probes are live: comparing two events, or two FIFO entries
    # equal up to their callbacks, directly does reach them
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.schedule(1.0, lambda: None) < sim.schedule(1.0, lambda: None)
    assert calls == ["__lt__", "__gt__"]
    del calls[:]
    assert ((1.0, 1, 0, Callback(print)) == (1.0, 1, 0, Callback(print))) is False
    assert calls == ["fifo__eq__", "fifo__eq__"]
