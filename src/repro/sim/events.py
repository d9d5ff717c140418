"""Event objects for the discrete-event kernel.

An :class:`Event` is an immutable-ish record the simulator keeps on its
binary heap inside a ``(time, priority, seq, event)`` tuple.  Ordering
is by ``(time, priority, seq)`` so that

* earlier events fire first,
* ties at the same timestamp are broken by an explicit integer priority
  (lower fires first), and
* remaining ties fire in scheduling order (``seq`` is a monotonically
  increasing counter assigned by the kernel),

which makes every run bit-for-bit deterministic regardless of heap
internals.  ``seq`` is unique, so the tuple comparison never reaches the
:class:`Event` itself; the class deliberately defines no ordering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable


class Priority(enum.IntEnum):
    """Tie-break priorities for events scheduled at the same instant.

    ``HIGH`` is used by the kernel's internal bookkeeping (e.g. process
    wake-ups), ``NORMAL`` by ordinary protocol timers, ``LOW`` by
    observation/metric sampling so that samplers always see the state
    *after* same-time protocol activity.
    """

    HIGH = 0
    NORMAL = 1
    LOW = 2


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    priority:
        Tie-break priority; see :class:`Priority`.
    seq:
        Kernel-assigned monotonic sequence number (final tie-break).
    fn:
        The callback to invoke.
    args:
        Positional arguments passed to ``fn``.
    cancelled:
        Cooperative cancellation flag.  Cancelled events stay on the heap
        but are skipped when popped (lazy deletion -- O(1) cancel).
    daemon:
        Observation-plane flag.  Daemon events (metric samplers) are
        dispatched normally but excluded from ``events_dispatched``, so
        instrumented runs report identical event counts to bare ones.
    weight:
        Number of *logical* events this heap entry stands for.  Batched
        deliveries (one heap entry fanning a broadcast out to k
        receivers) carry ``weight=k`` so ``events_dispatched`` stays
        bit-identical to the unbatched reference schedule while the heap
        does 1/k of the work.
    done:
        Set by the kernel once the entry has left the heap (dispatched
        or skipped).  Guards :meth:`cancel` so cancelling an
        already-fired handle (timeout races do this) cannot corrupt the
        kernel's count of cancelled entries on the heap, from which
        ``pending()`` is derived.
    owner:
        The scheduler that queued this event, if any.  Cancellation
        notifies it so it can track dead weight on the heap and compact
        when lazily-cancelled entries dominate.
    """

    time: float
    priority: int
    seq: int
    fn: Callable[..., Any]
    args: tuple = field(default=())
    cancelled: bool = False
    daemon: bool = False
    weight: int = 1
    done: bool = field(default=False, compare=False)
    owner: Any = field(default=None, repr=False, compare=False)

    def cancel(self) -> None:
        """Mark this event so the kernel skips it when popped.

        A no-op once the event has already fired or been skipped: the
        handle is then off the heap and there is nothing to revoke.
        """
        if self.cancelled or self.done:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancel()
