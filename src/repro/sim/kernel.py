"""Discrete-event simulation kernel.

A minimal, deterministic event loop in the style of ns-2's scheduler:
a pending-event queue of :class:`~repro.sim.events.Event` records
ordered by ``(time, priority, seq)``.  All higher layers (radio, AODV,
the p2p overlay) schedule plain callbacks or generator-based processes
on a single :class:`Simulator` instance.

Design notes
------------
* The pending-event structure is one ``heapq`` list of ``(time,
  priority, seq, event)`` tuples.  Tuples are compared in C,
  element by element, and ``seq`` is unique, so a comparison is always
  decided by the first three fields: the :class:`Event` in the last
  slot is never compared and no Python-level ordering code runs on a
  push or a pop.  ``(time, priority, seq)`` is a total order with no
  ties left to break, so the dispatch order does not depend on the
  heap's internal layout (a compaction may re-heapify freely).
* Cancellation is lazy (events carry a ``cancelled`` flag and are skipped
  when popped) so cancelling the thousands of ping timeouts a p2p run
  creates is O(1) each.  To keep lazy cancellation from bloating the
  queue on long runs, the kernel counts dead entries and *compacts* (one
  O(live) filter pass) whenever cancelled events outnumber live
  ones; the registry counters ``kernel.events_skipped`` and
  ``kernel.heap_compactions`` expose the cost.
* The live-event count is maintained incrementally (+1 on schedule, -1
  on dispatch or cancel), so ``pending()`` / ``len(sim)`` / the obs
  sampler's snapshots are O(1) instead of an O(queue) scan per call.
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

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..obs.registry import Registry
from .events import Event, Priority

__all__ = ["Simulator", "SimulationError"]

#: Below this queue length compaction is pointless (rebuild overhead
#: would dominate); lazy skipping on pop handles small queues fine.
MIN_COMPACT_SIZE = 64


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
        self.registry.gauge("kernel.heap", fn=lambda: float(len(self._heap)))
        #: cancelled events currently sitting on the queue
        self._cancelled_pending = 0
        #: live (scheduled, not yet dispatched or cancelled) events;
        #: maintained incrementally so pending() is O(1)
        self._live = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

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
        return self.schedule_at(
            self._now + delay, fn, *args, priority=priority, daemon=daemon, weight=weight
        )

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

        Every push goes through this method.  ``time`` must be a number
        at or after ``now`` (NaN is rejected: it would break the heap
        invariant silently); ``+inf`` is legal and never fires under
        ``run(until=...)``.
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
        self._live += 1
        return ev

    # ------------------------------------------------------------------
    # lazy-cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel`; compacts when dead weight wins."""
        self._cancelled_pending += 1
        self._live -= 1
        size = len(self._heap)
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
        (cancelled events are skipped transparently).
        """
        heap = self._heap
        while heap:
            ev = heappop(heap)[3]
            if ev.cancelled:
                self._note_skip(ev)
                continue
            self._now = ev.time
            ev.done = True
            self._live -= 1
            if ev.daemon:
                self._c_daemon.value += ev.weight
            else:
                self._c_dispatched.value += ev.weight
            ev.fn(*ev.args)
            return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if queue is empty."""
        heap = self._heap
        while heap:
            head = heap[0]
            if not head[3].cancelled:
                return head[0]
            heappop(heap)
            self._note_skip(head[3])
        return None

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
        dispatched = 0
        try:
            while not self._stopped:
                nxt = self.peek_time()
                if nxt is None or (until is not None and nxt > until):
                    break
                if max_events is not None and dispatched >= max_events:
                    break
                self.step()
                dispatched += 1
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

        O(1): the count is maintained incrementally on schedule,
        dispatch and cancel (see :meth:`_brute_pending` for the
        reference O(queue) scan the kernel tests check against).
        """
        return self._live

    def _brute_pending(self) -> int:
        """O(queue) reference count of live queued events (tests only)."""
        return sum(1 for _ in self.iter_pending())

    def __len__(self) -> int:
        return self.pending()

    def iter_pending(self) -> Iterator[Event]:
        """Yield live queued events in internal (not fire) order."""
        return (entry[3] for entry in self._heap if not entry[3].cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator t={self._now:.3f} pending={self.pending()} "
            f"dispatched={self._c_dispatched.value}>"
        )
