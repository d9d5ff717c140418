"""Process-local instrumentation registry.

Every counter of a simulation lives here, and this is the one place
to read it.  A component asks its :class:`Registry` for a
:class:`Counter` / :class:`Gauge` / :class:`Histogram` / :class:`Timer`
named like ``"kernel.events_dispatched"`` and optionally *labeled*
(``family="ping"``, ``layer="radio"``, ``plane="p2p.flood"``) and keeps
a direct reference for the hot path; readers call
:meth:`Registry.value` (``registry.value("flood.duplicates",
plane="p2p.flood")``) or take the run's ``RunResult.counters``, and the
registry enumerates, aggregates and exports everything uniformly.
Components expose no counter properties of their own.

Design constraints (these shaped the API):

* **Hot-path cost is one attribute increment.**  ``Counter.value`` is a
  plain attribute; instrumented code does ``c.value += 1``.  No dict
  lookup, no method call required (``inc()`` exists for convenience).
* **Determinism.**  Metrics only *observe*; nothing in this module
  touches simulation state, RNG streams or event ordering, so a run
  with a fully-populated registry is bit-identical to one without.
* **One series per (kind, name, labels), none per node.**  Every
  member of a network charges the same shared instrument, so the
  number of series does not grow with the number of nodes.
* **Process-local.**  A registry is plain Python state owned by one
  simulation or component; there is no I/O and no global state.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Registry",
    "Sample",
]

LabelItems = Tuple[Tuple[str, Any], ...]


def _freeze_labels(labels: Dict[str, Any]) -> LabelItems:
    """Canonical (sorted, immutable) form of a keyword label set."""
    return tuple(sorted(labels.items()))  # keys are unique: values never compare


def flatten_key(name: str, labels: LabelItems) -> str:
    """``name{k=v,...}`` string key (stable across runs)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Metric:
    """Common identity of every registered instrument."""

    kind = "abstract"
    #: appended to the metric name, one per reading of :meth:`samples`
    suffixes: Tuple[str, ...] = ("",)
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels

    @property
    def label_dict(self) -> Dict[str, Any]:
        return dict(self.labels)

    @property
    def key(self) -> str:
        """Flattened ``name{labels}`` identity."""
        return flatten_key(self.name, self.labels)

    def samples(self) -> List[Tuple[str, float]]:
        """Numeric readings as ``(suffixed_name, value)`` pairs."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.key}>"


def _enumeration_key(metric: Metric) -> Tuple[str, str, str]:
    """The order every enumeration and every float sum follows."""
    return (metric.name, metric.kind, repr(metric.labels))


class Counter(Metric):
    """Monotonically increasing count.  Hot path: ``c.value += n``."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def samples(self) -> List[Tuple[str, float]]:
        return [(self.name, self.value)]


class Gauge(Metric):
    """Point-in-time value: either set explicitly or read via callback."""

    kind = "gauge"
    __slots__ = ("fn", "_value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.fn: Optional[Callable[[], float]] = None
        self._value = 0.0

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise ValueError(f"gauge {self.key} is callback-backed; cannot set()")
        self._value = value

    @property
    def value(self) -> float:
        return float(self.fn()) if self.fn is not None else self._value

    def samples(self) -> List[Tuple[str, float]]:
        return [(self.name, self.value)]


class Histogram(Metric):
    """Streaming summary (count / sum / min / max) of observed values."""

    kind = "histogram"
    suffixes = (".count", ".sum", ".min", ".max")
    __slots__ = ("count", "total", "min", "max")

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def samples(self) -> List[Tuple[str, float]]:
        values = (float(self.count), self.total, self.min, self.max)
        # the extrema of an empty histogram are not readings
        return [
            (self.name + s, v) for s, v in zip(self.suffixes, values[: 4 if self.count else 2])
        ]


class Timer(Metric):
    """Accumulated wall-clock time of a named code section.

    Timings are *wall* clock (``time.perf_counter``), never simulation
    time, and feed nothing back into the run -- they exist so
    ``run --stats`` can show where real time went.
    """

    kind = "timer"
    suffixes = (".seconds", ".calls")
    __slots__ = ("seconds", "calls")

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.seconds = 0.0
        self.calls = 0

    def time(self) -> "_TimerContext":
        """Context manager accumulating the enclosed wall time."""
        return _TimerContext(self)

    def add(self, seconds: float, calls: int = 1) -> None:
        self.seconds += seconds
        self.calls += calls

    def samples(self) -> List[Tuple[str, float]]:
        return [
            (self.name + s, v) for s, v in zip(self.suffixes, (self.seconds, float(self.calls)))
        ]


class _TimerContext:
    __slots__ = ("timer", "_t0")

    def __init__(self, timer: Timer) -> None:
        self.timer = timer
        self._t0 = 0.0

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.timer.add(time.perf_counter() - self._t0)


class Sample:
    """One numeric reading: ``(name, labels, value, kind)``."""

    __slots__ = ("name", "labels", "value", "kind")

    def __init__(self, name: str, labels: LabelItems, value: float, kind: str) -> None:
        self.name = name
        self.labels = labels
        self.value = value
        self.kind = kind

    @property
    def key(self) -> str:
        return flatten_key(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Sample {self.key}={self.value}>"


#: Section label used by :meth:`Registry.timed`.
WALL = "wall"


class Registry:
    """Get-or-create factory and enumerator for metrics.

    Asking twice for the same ``(kind, name, labels)`` returns the same
    object, so independent components -- every node of a network, say
    -- share one instrument.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, str, LabelItems], Metric] = {}
        #: metrics in enumeration order; None after one was added
        self._ordered: Optional[List[Metric]] = None

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def _get(self, cls: type, name: str, labels: Dict[str, Any]) -> Metric:
        key = (cls.kind, str(name), _freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(key[1], key[2])
            self._ordered = None
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(
        self, name: str, fn: Optional[Callable[[], float]] = None, **labels: Any
    ) -> Gauge:
        g: Gauge = self._get(Gauge, name, labels)  # type: ignore[assignment]
        if fn is not None:
            g.fn = fn
        return g

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    def timer(self, name: str, **labels: Any) -> Timer:
        return self._get(Timer, name, labels)  # type: ignore[return-value]

    def timed(self, section: str) -> _TimerContext:
        """``with registry.timed("kernel.run"): ...`` wall-clock hook."""
        return self.timer(WALL, section=section).time()

    # ------------------------------------------------------------------
    # enumeration and aggregation
    # ------------------------------------------------------------------
    def _sorted(self) -> List[Metric]:
        if self._ordered is None:
            self._ordered = sorted(self._metrics.values(), key=_enumeration_key)
        return self._ordered

    def metrics(self) -> List[Metric]:
        """All registered metrics in deterministic (name, kind, labels) order."""
        return list(self._sorted())

    def collect(self, *, skip_kinds: Tuple[str, ...] = ()) -> Iterator[Sample]:
        """Yield every numeric reading, deterministically ordered."""
        for metric in self._sorted():
            if metric.kind in skip_kinds:
                continue
            for name, value in metric.samples():
                yield Sample(name, metric.labels, value, metric.kind)

    def value(self, name: str, **labels: Any) -> float:
        """Sum of every counter/gauge named ``name`` matching ``labels``.

        Label aggregation: passing a subset of labels sums over the
        unspecified ones (``value("p2p.received")`` totals every
        message family).
        """
        want = _freeze_labels(labels)
        total = 0.0
        seen = False
        for metric in self._sorted():
            if metric.name != name or metric.kind not in ("counter", "gauge"):
                continue
            have = metric.label_dict
            if any(k not in have or have[k] != v for k, v in want):
                continue
            total += metric.value  # type: ignore[attr-defined]
            seen = True
        if not seen:
            raise KeyError(f"no counter/gauge named {name!r} matching {dict(want)}")
        return total

    def aggregated(self, *, skip_kinds: Tuple[str, ...] = ()) -> Dict[str, float]:
        """Flat ``{"name{labels}": value}`` dump of every reading.

        This is what ``RunResult.counters`` holds, the sampler records
        and ``run --stats`` tabulates.  Readings whose keys flatten
        alike (a histogram's ``m.count`` and a counter named so) add up,
        in enumeration order.
        """
        out: Dict[str, float] = {}
        for metric in self._sorted():
            if metric.kind in skip_kinds:
                continue
            for name, value in metric.samples():
                key = flatten_key(name, metric.labels)
                out[key] = out.get(key, 0.0) + value
        return out

    def wall_times(self) -> Dict[str, Tuple[float, int]]:
        """``{section: (seconds, calls)}`` for every :meth:`timed` section."""
        out: Dict[str, Tuple[float, int]] = {}
        for metric in self._sorted():
            if metric.name == WALL and metric.kind == "timer":
                section = metric.label_dict.get("section", metric.key)
                out[str(section)] = (metric.seconds, metric.calls)  # type: ignore[attr-defined]
        return out

    def __len__(self) -> int:
        """Registered series, one per ``(kind, name, labels)``."""
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Registry metrics={len(self)}>"
