"""A reading of how slow the host is, taken while a rep runs.

The sandbox gives the benchmark two cores of a shared host that runs the
same rep 1.3 - 2.4x slower for seconds to minutes at a time.  CPU time
rises with wall time and nothing is stolen, so it is contention inside
the core or its caches, invisible to every counter the guest can read
(see the README's "Steadiness").  No statistic over the reps of one run
removes a slow phase that outlasts the run, so the benchmark measures the
phase instead: a fixed piece of work is timed every ``INTERVAL_S`` while
the rep runs, and the rep's wall time is divided by how slow that work
was.

The work is a toy of the program's own kind -- a heap of timed events
over 600 node objects with peer tuples and small dedup dicts, and one
numpy neighbourhood query -- because what slows the interpreter is not
what slows an arithmetic loop.  Over a slow phase of seven minutes (180
reps of three workloads, each 1.0 - 2.15x slower than the same seed's
best) the rep's slowdown regressed on the probe's, both in logs, had
slope 1.13 / 1.12 / 1.22 (``dense_query`` / ``metro_mobility`` /
``paper_table2``) and r2 0.95 - 0.96 for this toy (1.35 / 1.12 / 1.30
over an earlier, shorter phase); a plain ``x += i * i % 7`` loop had
slope 1.6 - 1.9 (it loses 1.25x where the simulator loses 1.6x), a
pointer chase over 300 k integers 1.4 - 1.8, a wide mix of json / re /
struct / sorted calls 1.3 - 1.45, and the same toy over 50 or 10 000
nodes 1.2 - 1.5.  What is left after dividing is 5 % per rep (standard
deviation) where the raw wall had 23 %.

It lives in ``bench/`` and calls nothing of the program under test, so
no change to ``src/`` can move it: a faster simulator reads as faster.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["HostProbe", "INTERVAL_S", "NOMINAL_MS"]

#: the probe fires this often (wall seconds); one sample costs about
#: 1 ms, so it takes about 2 % of the rep
INTERVAL_S = 0.05
#: a host on which one sample takes this long has slowdown 1
NOMINAL_MS = 1.0

_NODES = 600
_PENDING = 150
_EVENTS_PER_SAMPLE = 120


class _Node:
    __slots__ = ("id", "x", "y", "peers", "seen", "duplicates")

    def __init__(self, i: int, x: float, y: float, peers: tuple) -> None:
        self.id, self.x, self.y, self.peers = i, x, y, peers
        self.seen: Dict[tuple, float] = {}
        self.duplicates = 0

    def receive(self, src: int, t: float) -> bool:
        key = (src, int(t * 10.0))
        if key in self.seen:
            self.duplicates += 1
            return False
        self.seen[key] = t
        if len(self.seen) > 8:
            self.seen.pop(next(iter(self.seen)))
        return True


class HostProbe:
    """Times the toy every ``INTERVAL_S`` between :meth:`start` and
    :meth:`stop`, from a ``SIGALRM`` interval timer (the handler runs in
    the main thread between two bytecodes of the rep)."""

    def __init__(self) -> None:
        rng = random.Random(_NODES)
        self._nodes = [
            _Node(
                i, rng.random() * 1000.0, rng.random() * 1000.0,
                tuple(rng.randrange(_NODES) for _ in range(6)),
            )
            for i in range(_NODES)
        ]  # fmt: skip
        self._heap = [(rng.random() * 10.0, rng.randrange(_NODES), k) for k in range(_PENDING)]
        heapq.heapify(self._heap)
        self._positions = np.random.default_rng(5).random((_NODES, 2)) * 1000.0
        self._seq = 0
        self.samples: List[float] = []
        self._old_handler: Any = None
        self._sampling = False

    def _work(self) -> str:
        heap, nodes, pop, push = self._heap, self._nodes, heapq.heappop, heapq.heappush
        seq = self._seq
        for _ in range(_EVENTS_PER_SAMPLE):
            t, i, _k = pop(heap)
            node = nodes[i]
            fresh = 0
            for j in node.peers:
                if nodes[j].receive(i, t):
                    fresh += 1
            seq += 1
            push(heap, (t + 0.01 + (i % 17) * 0.003 + fresh * 0.001, node.peers[seq % 6], seq))
        self._seq = seq
        order = np.arange(seq % 1000, seq % 1000 + _NODES) * 7 % _NODES
        delta = self._positions[order] - self._positions[seq % _NODES]
        near = np.flatnonzero((delta * delta).sum(axis=1) < 2500.0)
        return "%d:%d" % (seq, len(near))

    def sample(self, signum: int = 0, frame: Any = None) -> None:
        # A tick can arrive while the last sample still runs (the process
        # was stalled for 50 ms); Python would run this handler inside
        # itself, on half-updated toy state.  Such a tick is skipped.
        if self._sampling:
            return
        self._sampling = True
        try:
            t0 = perf_counter()
            self._work()
            self.samples.append(perf_counter() - t0)
        finally:
            self._sampling = False

    def start(self) -> None:
        for _ in range(5):  # warm the toy's own caches; not readings
            self._work()
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def slowdown(self) -> Optional[float]:
        """1 = the nominal host, 1.5 = a host half as slow again.

        A tick during which the toy took ``d`` did ``1 / d`` of work, so
        the window as a whole ran at the harmonic mean of the samples --
        which also keeps the odd sample that was itself interrupted from
        counting for more than its tick."""
        if not self.samples:
            return None
        return statistics.harmonic_mean(self.samples) * 1e3 / NOMINAL_MS
