"""Process-local instrumentation registry.

Every counter of a simulation lives here, and this is the one place
to read it.  A component asks its :class:`Registry` for a
:class:`Counter` / :class:`Gauge` / :class:`Histogram` / :class:`Timer`
named like ``"kernel.events_dispatched"`` and optionally *labeled*
(``node=3``, ``family="ping"``, ``layer="radio"``) and keeps a direct
reference for the hot path; readers call :meth:`Registry.value`
(``registry.value("flood.duplicates", plane="p2p.flood")``) or take the
run's aggregated ``RunResult.counters``, and the registry enumerates,
aggregates and exports everything uniformly.  Components expose no
counter properties of their own.

Design constraints (these shaped the API):

* **Hot-path cost is one attribute increment.**  ``Counter.value`` is a
  plain attribute; instrumented code does ``c.value += 1``.  No dict
  lookup, no method call required (``inc()`` exists for convenience).
* **Determinism.**  Metrics only *observe*; nothing in this module
  touches simulation state, RNG streams or event ordering, so a run
  with a fully-populated registry is bit-identical to one without.
* **Bookkeeping scales with metrics, not nodes.**  The ``node=`` label
  indexes the cells of a *family* (one per kind, name and remaining
  labels), and enumeration order is kept per ``(name, kind)`` bucket,
  so registering a per-node series sorts no labels and aggregating
  10 000 nodes sorts nothing and flattens one key per family.
* **Process-local.**  A registry is plain Python state owned by one
  simulation (or the module-level :func:`default_registry` for ad-hoc
  use); there is no I/O and no global mutation besides that default.
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
    "default_registry",
    "timed",
]

LabelItems = Tuple[Tuple[str, Any], ...]
#: output keys (one per reading) and the consecutive series adding into them
_Run = Tuple[Tuple[str, ...], List["Metric"]]

#: the label whose values index a family's cells
NODE = "node"


def _freeze_labels(labels: Dict[str, Any]) -> LabelItems:
    """Canonical (sorted, immutable) form of a keyword label set."""
    return tuple(sorted(labels.items()))  # keys are unique: values never compare


def flatten_key(name: str, labels: LabelItems) -> str:
    """``name{k=v,...}`` string key (stable across runs)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


#: ``node`` of a series registered without a ``node=`` label
_MISSING = _Missing()


class _Family:
    """Every series of one ``(kind, name, non-node labels)``.

    The family owns what its series share -- the name and the label
    tuple around the ``node`` item -- and one *cell* per ``node=`` value
    (plus, under :data:`_MISSING`, the series registered without one).
    """

    __slots__ = ("cls", "name", "rest", "cells", "bucket", "_at")

    def __init__(self, cls: type, name: str, rest: LabelItems, bucket: "_Bucket") -> None:
        self.cls = cls
        self.name = name
        self.rest = rest
        self.cells: Dict[Any, Metric] = {}
        self.bucket = bucket
        #: where the ``node`` item sits in the key-sorted label tuple
        self._at = sum(1 for k, _ in rest if k < NODE)

    def labels_of(self, node: Any) -> LabelItems:
        if node is _MISSING:
            return self.rest
        return self.rest[: self._at] + ((NODE, node),) + self.rest[self._at :]

    def cell(self, node: Any) -> "Metric":
        """Get-or-create the series of ``node``."""
        cell = self.cells.get(node)
        if cell is None:
            cell = self.cells[node] = self.cls(self, node)
            self.bucket.grew()
        return cell


class Metric:
    """Common identity of every registered instrument.

    An instrument is a cell of its :class:`_Family`: it stores only its
    reading and its ``node`` label value (:data:`_MISSING` when it was
    registered without one); name and labels are the family's.
    """

    kind = "abstract"
    #: appended to the metric name, one per reading of :meth:`samples`
    suffixes: Tuple[str, ...] = ("",)
    __slots__ = ("_family", "node")

    def __init__(self, family: _Family, node: Any) -> None:
        self._family = family
        self.node = node

    @property
    def name(self) -> str:
        return self._family.name

    @property
    def labels(self) -> LabelItems:
        return self._family.labels_of(self.node)

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


def _series_sort_key(metric: Metric) -> str:
    """The order every enumeration and every float sum follows: node ids
    compare as strings (``10 < 2``) exactly as they always did."""
    return repr(metric.labels)


class Counter(Metric):
    """Monotonically increasing count.  Hot path: ``c.value += n``."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, family: _Family, node: Any) -> None:
        super().__init__(family, node)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def samples(self) -> List[Tuple[str, float]]:
        return [(self.name, self.value)]


class Gauge(Metric):
    """Point-in-time value: either set explicitly or read via callback."""

    kind = "gauge"
    __slots__ = ("fn", "_value")

    def __init__(self, family: _Family, node: Any) -> None:
        super().__init__(family, node)
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

    def __init__(self, family: _Family, node: Any) -> None:
        super().__init__(family, node)
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
        name = self._family.name
        values = (float(self.count), self.total, self.min, self.max)
        # the extrema of an empty histogram are not readings
        return [(name + s, v) for s, v in zip(self.suffixes, values[: 4 if self.count else 2])]


class Timer(Metric):
    """Accumulated wall-clock time of a named code section.

    Timings are *wall* clock (``time.perf_counter``), never simulation
    time, and feed nothing back into the run -- they exist so
    ``run --stats`` can show where real time went.
    """

    kind = "timer"
    suffixes = (".seconds", ".calls")
    __slots__ = ("seconds", "calls")

    def __init__(self, family: _Family, node: Any) -> None:
        super().__init__(family, node)
        self.seconds = 0.0
        self.calls = 0

    def time(self) -> "_TimerContext":
        """Context manager accumulating the enclosed wall time."""
        return _TimerContext(self)

    def add(self, seconds: float, calls: int = 1) -> None:
        self.seconds += seconds
        self.calls += calls

    def samples(self) -> List[Tuple[str, float]]:
        name = self._family.name
        return [(name + s, v) for s, v in zip(self.suffixes, (self.seconds, float(self.calls)))]


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


#: Section label used by :meth:`Registry.timed` /  :func:`timed`.
WALL = "wall"


class _Bucket:
    """The series of one ``(name, kind)``, across families, in label order.

    Enumeration order is ``(name, kind, repr(labels))``; a bucket is one
    ``(name, kind)`` stretch of it.  The order, and per ``drop_labels``
    the output keys of a fold, are computed when first asked for after
    the bucket grew, so a fold walks ready lists: no sort, no key
    flattening per call.
    """

    __slots__ = ("name", "kind", "suffixes", "families", "_ordered", "_runs")

    def __init__(self, name: str, cls: type) -> None:
        self.name = name
        self.kind: str = cls.kind
        self.suffixes: Tuple[str, ...] = cls.suffixes
        self.families: List[_Family] = []
        self._ordered: Optional[List[Metric]] = None
        self._runs: Dict[Tuple[str, ...], List[_Run]] = {}

    def grew(self) -> None:
        self._ordered = None

    def ordered(self) -> List[Metric]:
        if self._ordered is None:
            cells = [c for family in self.families for c in family.cells.values()]
            cells.sort(key=_series_sort_key)
            self._ordered = cells
            self._runs.clear()
        return self._ordered

    def runs(self, drop_labels: Tuple[str, ...]) -> List[_Run]:
        """``ordered()`` cut into stretches that fold into the same keys.

        A run pairs ``name+suffix{kept labels}``, one key per reading,
        with the consecutive series whose readings add into them.  One
        family folded over ``node`` is one run; families whose cells
        interleave, or a fold that keeps ``node``, give shorter ones.
        """
        cells = self.ordered()  # before the lookup: re-ordering drops stale runs
        runs = self._runs.get(drop_labels)
        if runs is None:
            runs = self._runs[drop_labels] = []
            # Without the node label a family's cells share their keys.
            by_family = NODE in drop_labels
            shared: Dict[_Family, Tuple[str, ...]] = {}
            for cell in cells:
                keys = shared.get(cell._family) if by_family else None
                if keys is None:
                    kept = tuple(kv for kv in cell.labels if kv[0] not in drop_labels)
                    keys = tuple(flatten_key(self.name + suffix, kept) for suffix in self.suffixes)
                    if by_family:
                        shared[cell._family] = keys
                if runs and runs[-1][0] == keys:
                    runs[-1][1].append(cell)
                else:
                    runs.append((keys, [cell]))
        return runs

    def fold_into(self, out: Dict[str, float], drop_labels: Tuple[str, ...]) -> None:
        """Add every reading to ``out``, one addition each, in enumeration order."""
        single = self.suffixes == ("",)  # counter, gauge: the reading is .value
        for keys, cells in self.runs(drop_labels):
            if single:
                (key,) = keys
                total = out.get(key, 0.0)
                for cell in cells:
                    total += cell.value  # type: ignore[attr-defined]
                out[key] = total
            else:
                for cell in cells:
                    for key, (_, value) in zip(keys, cell.samples()):
                        out[key] = out.get(key, 0.0) + value


class Registry:
    """Get-or-create factory and enumerator for metrics.

    Asking twice for the same ``(kind, name, labels)`` returns the same
    object, so independent components may share an instrument (or keep
    per-node ones by labeling with ``node=...``).

    Series are stored as *families*: one entry per ``(kind, name,
    non-node labels)`` holding a cell per ``node=`` value, so a
    per-node instrument costs its reading, not a label tuple and a
    registry key of its own (see docs/OBSERVABILITY.md).
    """

    def __init__(self) -> None:
        self._families: Dict[Tuple[str, str, LabelItems], _Family] = {}
        self._buckets: Dict[Tuple[str, str], _Bucket] = {}
        #: buckets in (name, kind) order; None after a bucket was added
        self._bucket_order: Optional[List[_Bucket]] = None

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def _get(self, cls: type, name: str, labels: Dict[str, Any]) -> Metric:
        node = labels.pop(NODE, _MISSING)
        key = (cls.kind, str(name), _freeze_labels(labels))
        family = self._families.get(key)
        if family is None:
            family = self._families[key] = self._new_family(cls, key[1], key[2])
        return family.cell(node)

    def _new_family(self, cls: type, name: str, rest: LabelItems) -> _Family:
        bucket = self._buckets.get((name, cls.kind))
        if bucket is None:
            bucket = self._buckets[(name, cls.kind)] = _Bucket(name, cls)
            self._bucket_order = None
        family = _Family(cls, name, rest, bucket)
        bucket.families.append(family)
        return family

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
    def _ordered_buckets(self) -> List[_Bucket]:
        if self._bucket_order is None:
            self._bucket_order = [self._buckets[k] for k in sorted(self._buckets)]
        return self._bucket_order

    def _series(self, name: str, kind: str) -> List[Metric]:
        """The series of one ``(name, kind)`` in label order, without a scan."""
        bucket = self._buckets.get((name, kind))
        return bucket.ordered() if bucket is not None else []

    def metrics(self) -> List[Metric]:
        """All registered metrics in deterministic (name, kind, labels) order."""
        return [m for bucket in self._ordered_buckets() for m in bucket.ordered()]

    def collect(self, *, skip_kinds: Tuple[str, ...] = ()) -> Iterator[Sample]:
        """Yield every numeric reading, deterministically ordered."""
        for bucket in self._ordered_buckets():
            if bucket.kind in skip_kinds:
                continue
            for metric in bucket.ordered():
                labels = metric.labels
                for name, value in metric.samples():
                    yield Sample(name, labels, value, bucket.kind)

    def value(self, name: str, **labels: Any) -> float:
        """Sum of every counter/gauge named ``name`` matching ``labels``.

        Label aggregation: passing a subset of labels sums over the
        unspecified ones (``value("alg.pings_sent", alg="hybrid")``
        totals all nodes running that algorithm).
        """
        want = _freeze_labels(labels)
        total = 0.0
        seen = False
        for kind in ("counter", "gauge"):
            for metric in self._series(name, kind):
                have = dict(metric.labels)
                if any(have.get(k, _MISSING) != v for k, v in want):
                    continue
                total += metric.value  # type: ignore[attr-defined]
                seen = True
        if not seen:
            raise KeyError(f"no counter/gauge named {name!r} matching {dict(want)}")
        return total

    def snapshot(self, *, skip_kinds: Tuple[str, ...] = ()) -> Dict[str, float]:
        """Flat ``{"name{labels}": value}`` dump of every reading."""
        return {s.key: s.value for s in self.collect(skip_kinds=skip_kinds)}

    def aggregated(
        self, *, drop_labels: Tuple[str, ...] = ("node",), skip_kinds: Tuple[str, ...] = ()
    ) -> Dict[str, float]:
        """Readings summed over ``drop_labels`` (per-node detail folded).

        The result maps ``name{remaining-labels}`` to the summed value;
        this is what the sampler records and ``run --stats`` tabulates,
        so per-node label cardinality never bloats exported series.
        Every sum runs in enumeration order, so a float total does not
        depend on when its series were registered.
        """
        drop_labels = tuple(drop_labels)
        out: Dict[str, float] = {}
        for bucket in self._ordered_buckets():
            if bucket.kind not in skip_kinds:
                bucket.fold_into(out, drop_labels)
        return out

    def wall_times(self) -> Dict[str, Tuple[float, int]]:
        """``{section: (seconds, calls)}`` for every :meth:`timed` section."""
        out: Dict[str, Tuple[float, int]] = {}
        for metric in self._series(WALL, "timer"):
            section = dict(metric.labels).get("section", metric.key)
            out[str(section)] = (metric.seconds, metric.calls)  # type: ignore[attr-defined]
        return out

    def __len__(self) -> int:
        """Registered series: every cell of every family counts."""
        return sum(len(family.cells) for family in self._families.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Registry metrics={len(self)}>"


_DEFAULT: Optional[Registry] = None


def default_registry() -> Registry:
    """The process-wide fallback registry (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Registry()
    return _DEFAULT


def timed(section: str, registry: Optional[Registry] = None) -> _TimerContext:
    """Module-level sugar: time a section on ``registry`` (or the default)."""
    reg = registry if registry is not None else default_registry()
    return reg.timed(section)
