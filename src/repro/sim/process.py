"""Generator-based processes on top of the event kernel.

The protocol state machines in this package are mostly written as plain
callback chains, but long-lived control loops (the paper's
``while the node belongs to p2p network`` loops) read much more naturally
as coroutines.  A :class:`Process` wraps a generator that *yields* a
``float``/``int``: sleep that many simulated seconds.

Example
-------
>>> from repro.sim.kernel import Simulator
>>> sim = Simulator()
>>> out = []
>>> def loop():
...     while True:
...         out.append(sim.now)
...         yield 2.0
>>> p = Process(sim, loop())
>>> sim.run(until=5.0)
>>> out
[0.0, 2.0, 4.0]
"""

from __future__ import annotations

from typing import Any, Generator

from .events import Priority
from .kernel import Simulator

__all__ = ["Process"]


class Process:
    """Drives a generator as a simulated process.

    The generator starts at the current simulation time (via a zero-delay
    event, preserving deterministic ordering with other events scheduled
    at the same instant).

    Parameters
    ----------
    sim:
        The simulator to schedule on.
    gen:
        The generator to drive.
    name:
        Optional label for debugging.
    """

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any], name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.alive = True
        sim.schedule(0.0, self._advance, priority=Priority.HIGH)

    def _advance(self) -> None:
        try:
            yielded = next(self.gen)
        except StopIteration:
            self.alive = False
            return
        if not isinstance(yielded, (int, float)):
            raise TypeError(f"process {self.name!r} yielded {yielded!r}; expected a delay")
        if yielded < 0:
            raise ValueError(f"process {self.name!r} yielded negative delay {yielded!r}")
        self.sim.schedule(float(yielded), self._advance)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self.alive else "dead"
        return f"<Process {self.name!r} {state}>"
