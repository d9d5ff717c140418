"""Per-node instrument families: oracle equivalence and a scale guard.

The registry stores one family per ``(kind, name, non-node labels)`` and
folds through a per-``(name, kind)`` index.  ``FlatRegistry`` below is
the implementation it replaced -- one flat ``{(kind, name, labels):
metric}`` dict, sorted and folded series by series on every call -- kept
as the reference: every enumeration, sum (bit for bit) and export must
agree with it on arbitrary registries.  The scale guard then checks, by
counting calls instead of reading a clock, that a fold no longer does
per-series bookkeeping.
"""

import json
import math
from typing import Any, Dict, Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.registry as registry_mod
from repro.obs import Registry, registry_to_csv, registry_to_ndjson
from repro.scenarios import ScenarioConfig, build_scenario, run_scenario


# ----------------------------------------------------------------------
# the oracle: the flat per-series store, as it was before families
# ----------------------------------------------------------------------
def _flat_freeze(labels: Dict[str, Any]) -> tuple:
    return tuple(sorted((str(k), v) for k, v in labels.items()))


def _flat_key(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _FlatMetric:
    kind = "abstract"

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels

    @property
    def key(self) -> str:
        return _flat_key(self.name, self.labels)


class _FlatCounter(_FlatMetric):
    kind = "counter"

    def __init__(self, name, labels):
        super().__init__(name, labels)
        self.value = 0

    def samples(self):
        return [(self.name, self.value)]


class _FlatGauge(_FlatMetric):
    kind = "gauge"

    def __init__(self, name, labels):
        super().__init__(name, labels)
        self.fn = None
        self._value = 0.0

    def set(self, value):
        self._value = value

    @property
    def value(self):
        return float(self.fn()) if self.fn is not None else self._value

    def samples(self):
        return [(self.name, self.value)]


class _FlatHistogram(_FlatMetric):
    kind = "histogram"

    def __init__(self, name, labels):
        super().__init__(name, labels)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value):
        v = float(value)
        self.count += 1
        self.total += v
        self.min = min(self.min, v)
        self.max = max(self.max, v)

    def samples(self):
        out = [(self.name + ".count", float(self.count)), (self.name + ".sum", self.total)]
        if self.count:
            out.append((self.name + ".min", self.min))
            out.append((self.name + ".max", self.max))
        return out


class _FlatTimer(_FlatMetric):
    kind = "timer"

    def __init__(self, name, labels):
        super().__init__(name, labels)
        self.seconds = 0.0
        self.calls = 0

    def add(self, seconds, calls=1):
        self.seconds += seconds
        self.calls += calls

    def samples(self):
        return [(self.name + ".seconds", self.seconds), (self.name + ".calls", float(self.calls))]


class _FlatSample:
    def __init__(self, name, labels, value, kind):
        self.name, self.labels, self.value, self.kind = name, labels, value, kind

    @property
    def key(self):
        return _flat_key(self.name, self.labels)


_ABSENT = object()


class FlatRegistry:
    """The pre-family ``Registry``: sort every key, fold every series."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, str, tuple], _FlatMetric] = {}

    def _get(self, cls, name, labels):
        key = (cls.kind, str(name), _flat_freeze(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(key[1], key[2])
        return metric

    def counter(self, name, **labels):
        return self._get(_FlatCounter, name, labels)

    def gauge(self, name, fn=None, **labels):
        g = self._get(_FlatGauge, name, labels)
        if fn is not None:
            g.fn = fn
        return g

    def histogram(self, name, **labels):
        return self._get(_FlatHistogram, name, labels)

    def timer(self, name, **labels):
        return self._get(_FlatTimer, name, labels)

    def metrics(self) -> List[_FlatMetric]:
        def sort_key(key):
            kind, name, labels = key
            return (name, kind, repr(labels))

        return [self._metrics[k] for k in sorted(self._metrics, key=sort_key)]

    def collect(self, *, skip_kinds=()) -> Iterator[_FlatSample]:
        for metric in self.metrics():
            if metric.kind in skip_kinds:
                continue
            for name, value in metric.samples():
                yield _FlatSample(name, metric.labels, value, metric.kind)

    def value(self, name, **labels):
        want = _flat_freeze(labels)
        total = 0.0
        seen = False
        for metric in self.metrics():
            if metric.name != name or metric.kind not in ("counter", "gauge"):
                continue
            have = dict(metric.labels)
            if any(have.get(k, _ABSENT) != v for k, v in want):
                continue
            total += metric.value
            seen = True
        if not seen:
            raise KeyError(name)
        return total

    def snapshot(self, *, skip_kinds=()):
        return {s.key: s.value for s in self.collect(skip_kinds=skip_kinds)}

    def aggregated(self, *, drop_labels=("node",), skip_kinds=()):
        out: Dict[str, float] = {}
        for s in self.collect(skip_kinds=skip_kinds):
            kept = tuple((k, v) for k, v in s.labels if k not in drop_labels)
            key = _flat_key(s.name, kept)
            out[key] = out.get(key, 0.0) + s.value
        return out

    def wall_times(self):
        out = {}
        for metric in self.metrics():
            if metric.kind == "timer" and metric.name == "wall":
                section = dict(metric.labels).get("section", metric.key)
                out[str(section)] = (metric.seconds, metric.calls)
        return out

    def __len__(self):
        return len(self._metrics)


# ----------------------------------------------------------------------
# random registries
# ----------------------------------------------------------------------
#: "m" as a histogram emits "m.count", which collides with the counter
#: of that name; "wall" feeds wall_times()
NAMES = ("m", "m.count", "flood.x", "wall")
#: string order differs from numeric order (10 < 100 < 2), and "10"
#: flattens like 10 while being another series
NODES = (2, 10, 100, "10")
#: keys on both sides of "node" in the sorted label tuple; 1 and "1"
#: flatten to the same output key
LABELS = {"alg": ("r", "h"), "plane": ("a", "b", 1, "1"), "section": ("run", "build")}

_floats = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
    [0.1, 0.2, 0.3, 1e16, -1e16, 1.0, 1 / 3]
)

_labels = st.fixed_dictionaries(
    {},
    optional={
        "node": st.sampled_from(NODES),
        **{k: st.sampled_from(vs) for k, vs in LABELS.items()},
    },
)

_readings = st.one_of(
    st.tuples(st.just("counter"), st.integers(0, 2**40)),
    st.tuples(st.just("gauge_fn"), _floats),
    st.tuples(st.just("gauge_set"), _floats),
    st.tuples(st.just("histogram"), st.lists(_floats, max_size=3)),
    st.tuples(st.just("timer"), st.tuples(st.floats(0, 1e3), st.integers(0, 5))),
)

_ops = st.lists(st.tuples(st.sampled_from(NAMES), _labels, _readings), max_size=40)


def _apply(reg, ops) -> None:
    """Register and update one series per op (same calls on either store)."""
    for name, labels, (what, reading) in ops:
        if what == "counter":
            reg.counter(name, **labels).value += reading
        elif what == "gauge_fn":
            reg.gauge(name, fn=lambda v=reading: v, **labels)
        elif what == "gauge_set":
            g = reg.gauge(name, **labels)
            if g.fn is None:
                g.set(reading)
        elif what == "histogram":
            h = reg.histogram(name, **labels)
            for v in reading:
                h.observe(v)
        else:
            reg.timer(name, **labels).add(*reading)


def _bits(d: Dict[str, Any]) -> List[Tuple[str, str, str]]:
    """Items in dict order with floats spelled bit-exactly."""
    return [(k, type(v).__name__, float(v).hex()) for k, v in d.items()]


DROPS = ((), ("node",), ("plane",), ("node", "plane"), ("alg", "node", "plane", "section"))
SKIPS = ((), ("timer",), ("counter", "histogram"))


def _assert_same(new: Registry, old: FlatRegistry) -> None:
    assert len(new) == len(old)
    assert [(m.kind, m.name, m.labels) for m in new.metrics()] == [
        (m.kind, m.name, m.labels) for m in old.metrics()
    ]
    for skip in SKIPS:
        assert _bits(new.snapshot(skip_kinds=skip)) == _bits(old.snapshot(skip_kinds=skip))
        for drop in DROPS:
            got = new.aggregated(drop_labels=drop, skip_kinds=skip)
            want = old.aggregated(drop_labels=drop, skip_kinds=skip)
            assert _bits(got) == _bits(want), (drop, skip)
    assert _bits(new.aggregated()) == _bits(old.aggregated())
    assert new.wall_times() == old.wall_times()
    assert list(new.wall_times()) == list(old.wall_times())
    for name in NAMES + ("absent",):
        for want in ({}, {"node": 10}, {"plane": "a"}, {"plane": 1, "alg": "r"}, {"node": "10", "plane": "b"}):
            try:
                expected = old.value(name, **want)
            except KeyError:
                with pytest.raises(KeyError):
                    new.value(name, **want)
            else:
                assert new.value(name, **want).hex() == expected.hex()
    assert registry_to_ndjson(new) == registry_to_ndjson(old)
    assert registry_to_csv(new) == registry_to_csv(old)


class TestOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(first=_ops, later=_ops)
    def test_every_view_equals_the_flat_store(self, first, later):
        new, old = Registry(), FlatRegistry()
        _apply(new, first)
        _apply(old, first)
        _assert_same(new, old)  # also primes every cached order and key list
        # Late registration: series and families added after a fold must
        # show up, in the right place, in the next one.
        _apply(new, later)
        _apply(old, later)
        _assert_same(new, old)

    def test_float_sum_follows_repr_order_of_nodes(self):
        # 10 < 100 < 2 as strings: the non-associative sum below only
        # matches when cells are added in that order.
        values = {2: 1.0, 10: 1e16, 100: -1e16}
        new, old = Registry(), FlatRegistry()
        for reg in (new, old):
            for node, v in values.items():
                reg.gauge("g", fn=lambda v=v: v, plane="p", node=node)
        assert [m.labels[0][1] for m in new.metrics()] == [10, 100, 2]
        assert new.aggregated()["g{plane=p}"] == old.aggregated()["g{plane=p}"] == 1.0
        assert 1.0 + 1e16 + -1e16 == 0.0  # numeric order would have lost the 1.0

    def test_interleaved_families_keep_global_order(self):
        # Two planes share the (name, kind): label order puts node first,
        # so their cells interleave; dropping plane too merges them.
        new, old = Registry(), FlatRegistry()
        for reg in (new, old):
            for node, plane, v in ((2, "a", 0.1), (2, "b", 0.2), (10, "a", 0.3), (10, "b", 1e16)):
                reg.gauge("g", fn=lambda v=v: v, plane=plane, node=node)
        assert [m.labels for m in new.metrics()] == [m.labels for m in old.metrics()]
        both = ("node", "plane")
        assert _bits(new.aggregated(drop_labels=both)) == _bits(old.aggregated(drop_labels=both))


class TestFamilies:
    def test_get_or_create_identity(self):
        reg = Registry()
        a = reg.counter("c", node=1)
        assert reg.counter("c", node=1) is a
        assert reg.counter("c", node=2) is not a
        assert reg.counter("c") is not a  # the node-less series is its own cell
        assert reg.counter("c", plane="p", node=1) is reg.counter("c", node=1, plane="p")
        assert reg.gauge("c", node=1) is not a  # kinds never share
        assert len(reg) == 5

    def test_cells_read_identity_from_the_family(self):
        reg = Registry()
        c = reg.counter("alg.pings", alg="h", node=7, zone="z")
        assert c.name == "alg.pings" and c.kind == "counter" and c.node == 7
        assert c.labels == (("alg", "h"), ("node", 7), ("zone", "z"))
        assert c.label_dict == {"alg": "h", "node": 7, "zone": "z"}
        assert c.key == "alg.pings{alg=h,node=7,zone=z}"
        assert reg.counter("plain").labels == ()
        assert not hasattr(c, "__dict__")  # a cell stays a slot object

    def test_late_cell_is_seen_by_the_next_fold(self):
        reg = Registry()
        reg.counter("c", plane="p", node=1).inc(3)
        assert reg.aggregated() == {"c{plane=p}": 3.0}
        reg.counter("c", plane="p", node=0).inc(4)  # grows the family
        reg.counter("c", plane="q", node=0).inc(5)  # a new family, same bucket
        reg.counter("d").inc()  # a new bucket
        assert reg.aggregated() == {"c{plane=p}": 7.0, "c{plane=q}": 5.0, "d": 1.0}
        assert reg.value("c", node=0) == 9.0
        assert [s.key for s in reg.collect()][:2] == ["c{node=0,plane=p}", "c{node=0,plane=q}"]


# ----------------------------------------------------------------------
# scale guard
# ----------------------------------------------------------------------
class _Calls:
    """Counts calls of a module global while passing them through."""

    def __init__(self, monkeypatch, name: str) -> None:
        self.n = 0
        real = getattr(registry_mod, name)

        def counted(*args, **kwargs):
            self.n += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(registry_mod, name, counted)


class TestScaleGuard:
    def test_fold_work_tracks_output_keys_not_series(self, monkeypatch):
        # The metro_mobility smoke shape: paper density, queries off.
        n = 1000
        side = 100.0 * math.sqrt(n / 50.0)
        simulation = build_scenario(
            ScenarioConfig(
                num_nodes=n, area_width=side, area_height=side, queries=False, duration=1.0, seed=1,
            )
        )
        registry = simulation.registry
        # Same series as the flat store held: 6 flood + 3 alg + 1 histogram
        # per member, 6 flood per non-member (750 members), 23 globals
        # (the flat store's 34 less the three topology horizon counters,
        # the proof-gate gauge, analytics.bfs_shards and the six
        # counters of the incremental analytics lane).
        assert len(simulation.members) == 750
        assert len(registry) == 9 * n + 23

        flattens = _Calls(monkeypatch, "flatten_key")
        sort_keys = _Calls(monkeypatch, "_series_sort_key")
        samples = _Calls(monkeypatch, "Sample")

        simulation.run()  # RunManifest.finish folds once: orders every bucket
        assert sort_keys.n <= len(registry)  # one key per series, once
        assert flattens.n <= 2 * len(simulation.manifest.peaks)
        assert samples.n == 0

        flattens.n = sort_keys.n = 0
        registry.counter("graphfast.triangle_runs", layer="metrics").inc()  # as harvest does
        out = registry.aggregated(skip_kinds=("timer",))
        assert len(registry) > 100 * len(out)
        assert sort_keys.n <= len(out)
        assert flattens.n <= len(out)
        assert samples.n == 0
        assert out["flood.forwarded{plane=p2p.flood}"] == sum(
            m.value for m in registry.metrics() if m.name == "flood.forwarded"
        )

        flattens.n = sort_keys.n = 0
        walls = registry.wall_times()  # reads the timers, nothing per node
        assert list(walls) == ["topology.rebuild"]
        assert sort_keys.n <= len(walls) and flattens.n <= len(walls) and samples.n == 0

    def test_counters_equal_the_flat_store_recording(self):
        # RunResult.counters of this scenario at the last flat-store
        # commit (09a47a0), keys in its order -- less the four
        # ``kernel.calq_*`` series, which left with the calendar queue,
        # and the three ``topology.*`` horizon counters and
        # ``analytics.bfs_shards``, which left with the predictive
        # refresh path and the parallel analytics lane, and the six
        # ``analytics.*`` counters and ``graphfast.component_runs``,
        # which left with the incremental analytics lane (the harvest
        # no longer labels components).
        result = run_scenario(
            ScenarioConfig(num_nodes=150, duration=20.0, algorithm="hybrid", seed=5)
        )
        assert list(result.counters.items()) == list(json.loads(_RECORDED_N150).items())


_RECORDED_N150 = """{
"alg.connections_closed{alg=hybrid}": 5.0, "alg.connections_established{alg=hybrid}": 48.0,
"alg.pings_sent{alg=hybrid}": 112.0,
"aodv.rreq_keys_live": 28.0, "energy.consumed": 2.078592999999996,
"flood.cache_occupancy{plane=p2p.flood}": 0.24609375, "flood.duplicates{plane=p2p.flood}": 1983.0,
"flood.eviction_rate{plane=p2p.flood}": 0.0, "flood.evictions{plane=p2p.flood}": 0.0,
"flood.forwarded{plane=p2p.flood}": 514.0, "flood.originated{plane=p2p.flood}": 106.0,
"graphfast.bfs_sources{layer=metrics}": 112.0, "graphfast.triangle_runs{layer=metrics}": 1.0,
"kernel.events_daemon": 0.0, "kernel.events_dispatched": 12874.0, "kernel.events_skipped": 0.0,
"kernel.heap": 395.0, "kernel.heap_compactions": 0.0, "kernel.heap_pushes": 5193.0,
"net.frames_delivered{layer=radio}": 11545.0, "net.frames_sent{layer=radio}": 3484.0,
"overlay.connections": 112.0, "overlay.members": 112.0, "p2p.flood_hops.count": 651.0,
"p2p.flood_hops.sum": 1151.0, "p2p.flood_hops.min": 123.0, "p2p.flood_hops.max": 303.0,
"p2p.received{family=connect}": 2212.0, "p2p.received{family=other}": 0.0,
"p2p.received{family=ping}": 212.0, "p2p.received{family=query}": 0.0,
"p2p.received{family=transfer}": 0.0,
"topology.delta_rebuilds{backend=dense,layer=topology}": 60.0,
"topology.dist_cache_hits{backend=dense,layer=topology}": 0.0,
"topology.moved_nodes{backend=dense,layer=topology}": 1004.0,
"topology.rebuilds{backend=dense,layer=topology}": 61.0
}"""
