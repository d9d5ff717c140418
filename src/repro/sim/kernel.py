"""Discrete-event simulation kernel.

A minimal, deterministic event loop in the style of ns-2's scheduler:
pending events ordered by ``(time, priority, seq)``.  All higher layers
(radio, AODV, the p2p overlay) schedule plain callbacks or
generator-based processes on a single :class:`Simulator` instance.

Design notes
------------
* Pending events live in two structures that read as one queue:

  - the *heap*, one ``heapq`` list of ``(time, priority, seq, event)``
    tuples, holds everything scheduled through :meth:`schedule` or
    :meth:`schedule_at` (timers, process wake-ups, samplers): any time,
    any priority, and an :class:`~repro.sim.events.Event` handle that
    can be cancelled.  Both, and :meth:`post_at`'s out-of-order posts,
    push through one private body that takes positional arguments only
    (``_push``);
  - the *FIFO*, a ``deque`` of plain ``(time, NORMAL, seq, fn, args,
    weight)`` tuples, holds what :meth:`post_at` queues: the radio's
    frame copies, which nobody cancels and which arrive at ``now +
    latency`` in rising ``seq`` -- already in dispatch order.  A post is
    appended only when its time is at or after the FIFO's tail, so the
    FIFO stays sorted; an earlier one (a CSMA completion behind a longer
    frame still on air) goes onto the heap as an ordinary ``Event``.

  Every read merges the two heads by ``(time, priority, seq)``.  Tuples
  compare in C element by element and ``seq`` is unique across both
  structures, so a comparison is always decided by the first three
  fields: no ``Event`` or callback is ever compared and no Python-level
  ordering code runs on a push or a pop.  ``(time, priority, seq)`` is a
  total order with no ties left to break, so the dispatch order is the
  one a single heap holding every entry would give, whatever either
  structure's layout (a compaction may re-heapify freely).  A FIFO push
  and pop are O(1) and build no ``Event``.
* Cancellation is lazy (heap events carry a ``cancelled`` flag and are
  skipped when they reach the head), so a cancel is O(1).  Few events
  are ever cancelled: a ping's pong deadline is left to fire when the
  pong arrives (it then finds nothing awaited), and the only cancellers
  are a counter rebroadcast policy calling off an assessment once it
  hears enough duplicates (``CounterPolicy.duplicate``) and
  ``Process.kill`` dropping a killed process's pending wake-up.  Should
  cancelled events pile up anyway, the kernel counts dead entries and
  *compacts* the heap (one O(live) filter pass) whenever they outnumber
  the live entries of heap and FIFO together; the registry counters
  ``kernel.events_skipped`` and ``kernel.heap_compactions`` expose the
  cost.
* The live-event count is derived, not kept: the kernel already counts
  the cancelled entries still on the heap, so ``pending()`` is ``len(heap)
  + len(fifo) - cancelled`` -- O(1) for ``len(sim)`` and the obs
  sampler's snapshots, and no bookkeeping on a push or a pop.  For the
  same reason ``kernel.heap`` (entries queued) and ``kernel.heap_pushes``
  (entries pushed) count heap and FIFO together: the names predate the
  FIFO and are kept for pinned counters and archived runs.
* ``run()`` drains the queue in one loop: it picks the earlier head,
  skips a cancelled one, checks the horizon and dispatches, with no
  ``peek_time()`` or ``step()`` call per event.  The two stay public
  with the same meaning and merge the same two heads, so a loop over
  them (``while peek_time() is not None and ...: step()``) dispatches
  the same events in the same order with the same counters.
* An event may carry ``weight=k``: one queue entry standing for k logical
  events (batched broadcast delivery).  Dispatch counts the weight, so
  ``kernel.events_dispatched`` is comparable across batched and
  unbatched schedules; ``kernel.heap_pushes`` counts raw queue traffic
  and shows the batching win.
* The kernel never advances past ``run(until=...)``; events beyond the
  horizon stay queued, which lets callers resume the same simulation
  (``run`` may be called repeatedly with increasing horizons).
* ``now`` is a float in seconds.  Events scheduled "now" with a zero
  delay still go through the queue, preserving the priority/seq order.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import chain
from math import inf
from operator import attrgetter
from typing import Any, Callable, Deque, Iterator, List, Optional, Tuple

from ..obs.registry import Registry
from .events import Event, Priority

__all__ = ["Simulator", "SimulationError"]

#: Below this queue length compaction is pointless (rebuild overhead
#: would dominate); lazy skipping on pop handles small queues fine.
MIN_COMPACT_SIZE = 64

#: The priority of every :meth:`Simulator.post_at` entry.
_NORMAL = int(Priority.NORMAL)


class SimulationError(RuntimeError):
    """Raised on kernel misuse (negative delays, running a closed sim)."""


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial simulation clock value (seconds).  Defaults to 0.
    registry:
        Observability registry the kernel's counters live in; a private
        one is created when not supplied (standalone use, tests).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(
        self,
        start_time: float = 0.0,
        *,
        registry: Optional[Registry] = None,
    ) -> None:
        self._now = float(start_time)
        self._seq = 0
        self._running = False
        self._stopped = False
        self.registry = registry if registry is not None else Registry()
        self._c_dispatched = self.registry.counter("kernel.events_dispatched")
        self._c_skipped = self.registry.counter("kernel.events_skipped")
        self._c_compactions = self.registry.counter("kernel.heap_compactions")
        self._c_daemon = self.registry.counter("kernel.events_daemon")
        self._c_pushes = self.registry.counter("kernel.heap_pushes")
        #: the pending-event heap: ``(time, priority, seq, event)``
        self._heap: List[Tuple[float, int, int, Event]] = []
        #: handle-free posts in dispatch order: ``(time, NORMAL, seq, fn,
        #: args, weight)``
        self._fifo: Deque[Tuple[float, int, int, Callable[..., Any], tuple, int]] = deque()
        self.registry.gauge(
            "kernel.heap", fn=lambda: float(len(self._heap) + len(self._fifo))
        )
        #: cancelled events currently sitting on the queue
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    # Read on nearly every event; a C getter costs no Python frame.
    now = property(attrgetter("_now"), doc="Current simulation time in seconds.")

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.NORMAL,
        daemon: bool = False,
        weight: int = 1,
    ) -> Event:
        """Schedule ``fn(*args)`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, whose :meth:`~Event.cancel` method
        revokes it.  ``delay`` must be non-negative.  ``daemon`` events
        (observation plane) dispatch normally but are excluded from
        ``events_dispatched``.  ``weight`` is the number of logical
        events this entry stands for (batched delivery).
        """
        # ``not >=`` instead of ``<`` so that NaN is rejected too.
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        return self._push(self._now + delay, priority, fn, args, daemon, weight)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.NORMAL,
        daemon: bool = False,
        weight: int = 1,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``.

        ``time`` must be a number at or after ``now`` (NaN is rejected:
        it would break the heap invariant silently); ``+inf`` is legal
        and never fires under ``run(until=...)``.
        """
        return self._push(time, priority, fn, args, daemon, weight)

    def _push(
        self,
        time: float,
        priority: int,
        fn: Callable[..., Any],
        args: tuple,
        daemon: bool,
        weight: int,
    ) -> Event:
        """The one heap push: validate, build the :class:`Event`, count it.

        :meth:`schedule`, :meth:`schedule_at` and :meth:`post_at`'s
        out-of-order branch all land here with positional arguments, so
        a timer costs one Python call below its public entry point.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock is already at {self._now!r}"
            )
        if weight < 1:
            raise SimulationError(f"weight must be >= 1, got {weight!r}")
        time = float(time)
        priority = int(priority)
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args, False, daemon, weight, False, self)
        heappush(self._heap, (time, priority, seq, ev))
        self._c_pushes.value += 1
        return ev

    def post_at(
        self, time: float, fn: Callable[..., Any], args: tuple = (), weight: int = 1
    ) -> None:
        """Queue ``fn(*args)`` at absolute ``time``, with no handle.

        The same event as ``schedule_at(time, fn, *args, weight=weight)``
        -- NORMAL priority, never a daemon event, the next ``seq``, one
        ``kernel.heap_pushes`` -- that cannot be cancelled, so the kernel
        keeps no :class:`Event` for it: an entry at or after the FIFO's
        tail is appended there as a plain tuple; an earlier one goes onto
        the heap like any ``schedule_at`` entry.  Dispatch order is the
        same either way, so callers need not post in time order; posting
        in time order is what keeps the entries off the heap.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot post at {time!r}, clock is already at {self._now!r}"
            )
        if weight < 1:
            raise SimulationError(f"weight must be >= 1, got {weight!r}")
        fifo = self._fifo
        if fifo and time < fifo[-1][0]:
            self._push(time, _NORMAL, fn, args, False, weight)
            return
        seq = self._seq
        self._seq = seq + 1
        self._c_pushes.value += 1
        fifo.append((time, _NORMAL, seq, fn, args, weight))

    # ------------------------------------------------------------------
    # lazy-cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel`; compacts when dead weight wins."""
        self._cancelled_pending += 1
        size = len(self._heap) + len(self._fifo)
        if size >= MIN_COMPACT_SIZE and self._cancelled_pending * 2 > size:
            self.compact()

    def _note_skip(self, ev: Event) -> None:
        """Account for a cancelled entry that was just popped."""
        ev.done = True
        self._c_skipped.value += 1
        if self._cancelled_pending:
            self._cancelled_pending -= 1

    def compact(self) -> None:
        """Drop all cancelled events from the queue in one pass.

        O(n) filter; called automatically once cancelled entries exceed
        half the queue, and safe to call by hand.
        """
        heap = self._heap
        live = [entry for entry in heap if not entry[3].cancelled]
        purged = len(heap) - len(live)
        if purged:
            heapify(live)
            # in place: a ``step()`` further up the stack holds this list
            heap[:] = live
            self._c_skipped.value += purged
            self._c_compactions.value += 1
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Dispatch the single next pending event.

        Returns the event dispatched, or ``None`` if the queue is empty
        (cancelled events are skipped transparently).  A FIFO entry is
        returned as an :class:`Event` record built after its dispatch.
        """
        heap = self._heap
        fifo = self._fifo
        while True:
            if fifo and (not heap or fifo[0] < heap[0]):
                time, priority, seq, fn, args, weight = fifo.popleft()
                self._now = time
                self._c_dispatched.value += weight
                fn(*args)
                return Event(time, priority, seq, fn, args, False, False, weight, True, self)
            if not heap:
                return None
            ev = heappop(heap)[3]
            if ev.cancelled:
                self._note_skip(ev)
                continue
            self._now = ev.time
            ev.done = True
            if ev.daemon:
                self._c_daemon.value += ev.weight
            else:
                self._c_dispatched.value += ev.weight
            ev.fn(*ev.args)
            return ev

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if queue is empty."""
        heap = self._heap
        fifo = self._fifo
        while heap:
            head = heap[0]
            if fifo and fifo[0] < head:
                break
            if not head[3].cancelled:
                return head[0]
            heappop(heap)
            self._note_skip(head[3])
        return fifo[0][0] if fifo else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``stop()``.

        Parameters
        ----------
        until:
            Horizon (absolute seconds).  Events at exactly ``until`` DO
            fire; later events remain queued.  When the horizon is hit the
            clock is advanced to ``until`` even if no event fired there,
            so back-to-back ``run`` calls see a monotone clock.
        max_events:
            Safety valve: dispatch at most this many events.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        # The body of ``peek_time()`` + ``step()``, fused: the same
        # checks in the same order, without two calls per event.
        heap = self._heap  # compact() rewrites it in place
        fifo = self._fifo
        popleft = fifo.popleft
        horizon = inf if until is None else until
        budget = inf if max_events is None else max_events
        dispatched = self._c_dispatched
        daemon = self._c_daemon
        count = 0
        try:
            while not self._stopped:
                if fifo:
                    entry = fifo[0]
                    if not heap or entry < heap[0]:
                        time = entry[0]
                        if time > horizon or count >= budget:
                            break
                        popleft()
                        self._now = time
                        dispatched.value += entry[5]
                        entry[3](*entry[4])
                        count += 1
                        continue
                elif not heap:
                    break
                time, _, _, ev = heap[0]
                if ev.cancelled:
                    heappop(heap)
                    self._note_skip(ev)
                    continue
                if time > horizon or count >= budget:
                    break
                heappop(heap)
                self._now = time
                ev.done = True
                if ev.daemon:
                    daemon.value += ev.weight
                else:
                    dispatched.value += ev.weight
                ev.fn(*ev.args)
                count += 1
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): the queue length less the cancelled entries still on it
        (see :meth:`_brute_pending` for the reference O(queue) scan the
        kernel tests check against).
        """
        return len(self._heap) + len(self._fifo) - self._cancelled_pending

    def _brute_pending(self) -> int:
        """O(queue) reference count of live queued events (tests only)."""
        return sum(1 for _ in self.iter_pending())

    def __len__(self) -> int:
        return self.pending()

    def iter_pending(self) -> Iterator[Event]:
        """Yield live queued events in internal (not fire) order.

        A FIFO entry, which has no handle, is yielded as a detached
        :class:`Event` record (``done`` set, so its ``cancel()`` is a
        no-op).
        """
        return chain(
            (entry[3] for entry in self._heap if not entry[3].cancelled),
            (
                Event(time, priority, seq, fn, args, False, False, weight, True)
                for time, priority, seq, fn, args, weight in self._fifo
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator t={self._now:.3f} pending={self.pending()} "
            f"dispatched={self._c_dispatched.value}>"
        )
