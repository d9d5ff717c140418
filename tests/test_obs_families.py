"""One series per (kind, name, labels): oracle equivalence and a size guard.

The registry is one flat ``{(kind, name, labels): metric}`` dict whose
enumeration order is sorted once and reused until the next
registration.  ``FlatRegistry`` below sorts every key and folds series
by series on every call; it is the reference: every enumeration, sum
(bit for bit) and export must agree with it on arbitrary registries,
including series registered after a read.  The size guard then checks
that nothing in a simulation's registry grows with the number of nodes.
"""

import json
import math
from typing import Any, Dict, Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import P2pConfig
from repro.obs import Registry
from repro.scenarios import ScenarioConfig, build_scenario, run_scenario


# ----------------------------------------------------------------------
# the oracle: a flat store that sorts on every call
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

    @property
    def value(self):
        return float(self.fn()) if self.fn is not None else 0.0

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


class _FlatSample:
    def __init__(self, name, labels, value, kind):
        self.name, self.labels, self.value, self.kind = name, labels, value, kind

    @property
    def key(self):
        return _flat_key(self.name, self.labels)


_ABSENT = object()


class FlatRegistry:
    """The reference ``Registry``: sort every key, fold every series."""

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

    def aggregated(self):
        out: Dict[str, float] = {}
        for s in self.collect(skip_kinds=("timer",)):
            out[s.key] = out.get(s.key, 0.0) + s.value
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
IDS = (2, 10, 100, "10")
#: keys on both sides of "id" in the sorted label tuple; 1 and "1"
#: flatten to the same output key
LABELS = {"alg": ("r", "h"), "plane": ("a", "b", 1, "1"), "section": ("run", "build")}

_floats = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
    [0.1, 0.2, 0.3, 1e16, -1e16, 1.0, 1 / 3]
)

_labels = st.fixed_dictionaries(
    {},
    optional={
        "id": st.sampled_from(IDS),
        **{k: st.sampled_from(vs) for k, vs in LABELS.items()},
    },
)

_readings = st.one_of(
    st.tuples(st.just("counter"), st.integers(0, 2**40)),
    st.tuples(st.just("gauge_fn"), _floats),
    st.just(("gauge_bare", None)),
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
        elif what == "gauge_bare":
            reg.gauge(name, **labels)  # no callback yet: reads 0.0
        elif what == "histogram":
            h = reg.histogram(name, **labels)
            for v in reading:
                h.observe(v)
        else:
            reg.timer(name, **labels).add(*reading)


def _bits(d: Dict[str, Any]) -> List[Tuple[str, str, str]]:
    """Items in dict order with floats spelled bit-exactly."""
    return [(k, type(v).__name__, float(v).hex()) for k, v in d.items()]


def _assert_same(new: Registry, old: FlatRegistry) -> None:
    assert len(new) == len(old)
    assert [(m.kind, m.name, m.labels) for m in new._sorted()] == [
        (m.kind, m.name, m.labels) for m in old.metrics()
    ]
    assert _bits(new.aggregated()) == _bits(old.aggregated())
    assert new.wall_times() == old.wall_times()
    assert list(new.wall_times()) == list(old.wall_times())
    for name in NAMES + ("absent",):
        for want in ({}, {"id": 10}, {"plane": "a"}, {"plane": 1, "alg": "r"}, {"id": "10", "plane": "b"}):
            try:
                expected = old.value(name, **want)
            except KeyError:
                with pytest.raises(KeyError):
                    new.value(name, **want)
            else:
                assert new.value(name, **want).hex() == expected.hex()


class TestOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(first=_ops, later=_ops)
    def test_every_view_equals_the_flat_store(self, first, later):
        new, old = Registry(), FlatRegistry()
        _apply(new, first)
        _apply(old, first)
        _assert_same(new, old)  # also caches the enumeration order
        # Late registration: series added after a read must show up, in
        # the right place, in the next one.
        _apply(new, later)
        _apply(old, later)
        _assert_same(new, old)

    def test_float_sum_follows_repr_order_of_nodes(self):
        # Ids compare as their repr strings (10 < 100 < 2): the
        # non-associative sum below only matches in that order.
        values = {2: 1.0, 10: 1e16, 100: -1e16}
        new, old = Registry(), FlatRegistry()
        for reg in (new, old):
            for node, v in values.items():
                reg.gauge("g", fn=lambda v=v: v, plane="p", id=node)
        assert [m.labels[0][1] for m in new._sorted()] == [10, 100, 2]
        assert new.value("g", plane="p") == old.value("g", plane="p") == 1.0
        assert 1.0 + 1e16 + -1e16 == 0.0  # numeric order would have lost the 1.0

    def test_interleaved_families_keep_global_order(self):
        # Two planes share the name: label order puts id first, so their
        # series interleave, and a sum over both follows that order.
        new, old = Registry(), FlatRegistry()
        for reg in (new, old):
            for node, plane, v in ((2, "a", 0.1), (2, "b", 0.2), (10, "a", 0.3), (10, "b", 1e16)):
                reg.gauge("g", fn=lambda v=v: v, plane=plane, id=node)
        assert [m.labels for m in new._sorted()] == [m.labels for m in old.metrics()]
        assert new.value("g").hex() == old.value("g").hex()
        assert _bits(new.aggregated()) == _bits(old.aggregated())


class TestFamilies:
    def test_get_or_create_identity(self):
        reg = Registry()
        a = reg.counter("c", plane="p")
        assert reg.counter("c", plane="p") is a
        assert reg.counter("c", plane="q") is not a
        assert reg.counter("c") is not a  # the unlabeled series is its own
        assert reg.counter("c", plane="p", alg="h") is reg.counter("c", alg="h", plane="p")
        assert reg.gauge("c", plane="p") is not a  # kinds never share
        assert len(reg) == 5

    def test_cells_read_identity_from_the_family(self):
        # An instrument holds its own name and sorted labels.
        reg = Registry()
        c = reg.counter("alg.pings", alg="h", zone="z", layer="l")
        assert c.name == "alg.pings" and c.kind == "counter"
        assert c.labels == (("alg", "h"), ("layer", "l"), ("zone", "z"))
        assert c.label_dict == {"alg": "h", "layer": "l", "zone": "z"}
        assert c.key == "alg.pings{alg=h,layer=l,zone=z}"
        assert reg.counter("plain").labels == ()
        assert not hasattr(c, "__dict__")  # an instrument stays a slot object
        assert not hasattr(c, "node")

    def test_late_cell_is_seen_by_the_next_fold(self):
        reg = Registry()
        reg.counter("c", plane="q").inc(3)
        assert reg.aggregated() == {"c{plane=q}": 3.0}
        reg.counter("c", plane="p").inc(4)  # sorts before the first series
        reg.counter("b").inc()  # a new name, first of all
        assert list(reg.aggregated().items()) == [
            ("b", 1.0), ("c{plane=p}", 4.0), ("c{plane=q}", 3.0)
        ]
        assert reg.value("c") == 7.0


# ----------------------------------------------------------------------
# size guard and the recorded run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def n150_counters() -> Dict[str, float]:
    result = run_scenario(ScenarioConfig(num_nodes=150, duration=20.0, algorithm="hybrid", seed=5))
    return result.counters


class TestScaleGuard:
    def test_fold_work_tracks_output_keys_not_series(self):
        # The metro_mobility smoke shape: paper density, queries off.
        # Every member charges the same shared instruments, so the
        # registry has as many series at n = 1 000 as at n = 100.  (It
        # held 3 series per member, 3·n + 27 in all, while each member
        # kept its own alg counters and flood-hop histogram.)
        sizes = {}
        for n in (100, 1000):
            side = 100.0 * math.sqrt(n / 50.0)
            simulation = build_scenario(
                ScenarioConfig(
                    num_nodes=n, area_width=side, area_height=side, queries=False,
                    duration=1.0, seed=1,
                )
            )
            simulation.run()
            sizes[n] = len(simulation.registry)
        assert sizes[100] == sizes[1000]
        first, *others = [s._h_flood_hops for s in simulation.overlay.servents.values()]
        assert others and all(h is first for h in others)

    def test_counters_equal_the_flat_store_recording(self, n150_counters):
        # RunResult.counters of this scenario at the last flat-store
        # commit (09a47a0), keys in its order -- less the four
        # ``kernel.calq_*`` series, which left with the calendar queue,
        # and the three ``topology.*`` horizon counters and
        # ``analytics.bfs_shards``, which left with the predictive
        # refresh path and the parallel analytics lane, and the six
        # ``analytics.*`` counters and ``graphfast.component_runs``,
        # which left with the incremental analytics lane (the harvest
        # no longer labels components), and the three per-node
        # ``flood.*`` cache gauges and eviction counter, which left with
        # the per-node flood managers (``flood.ids_live`` replaced them).
        # ``p2p.flood_hops.min`` / ``.max`` were 123 / 303 while every
        # member kept its own histogram and the fold summed their
        # extrema; one shared histogram reports the true ones.  The five
        # ``routing.*{protocol=aodv}`` counters were added when the
        # router counters moved into the registry; their values equal
        # the previous commit's ``router.control_overhead()`` for this
        # run (``hello_sent``, never reported then, its per-agent sum).
        # The ``topology.*`` counters lost their ``backend=dense`` label
        # and gained ``topology.csr_builds`` when the grid became the one
        # backend at every n; their other values are unchanged.  When a
        # refresh became keep-or-rebuild, ``topology.delta_rebuilds`` and
        # ``topology.moved_nodes`` left and ``topology.csr_builds`` rose
        # from 41 to 61.  When AODV's route requests moved onto a flood
        # plane, ``aodv.rreq_keys_live`` became
        # ``flood.ids_live{plane=aodv.rreq}`` (28 ids, younger than
        # PATH_DISCOVERY_TIME = 3.2 s, in both) and the plane's three
        # ``flood.*`` counters joined.  ``routing.hello_sent`` (0 here)
        # left with AODV's HELLO link sensing.
        assert list(n150_counters.items()) == list(json.loads(_RECORDED_N150).items())


class TestHistogramExtrema:
    def test_flood_hops_extrema_are_real(self, n150_counters):
        cfg = P2pConfig()
        lo, hi = n150_counters["p2p.flood_hops.min"], n150_counters["p2p.flood_hops.max"]
        assert 1 <= lo <= hi <= max(cfg.max_nhops, cfg.nhops_basic)


_RECORDED_N150 = """{
"alg.connections_closed{alg=hybrid}": 5.0, "alg.connections_established{alg=hybrid}": 48.0,
"alg.pings_sent{alg=hybrid}": 112.0,
"energy.consumed": 2.078592999999996,
"flood.duplicates{plane=aodv.rreq}": 4666.0, "flood.duplicates{plane=p2p.flood}": 1983.0,
"flood.forwarded{plane=aodv.rreq}": 1090.0, "flood.forwarded{plane=p2p.flood}": 514.0,
"flood.ids_live{plane=aodv.rreq}": 28.0, "flood.ids_live{plane=p2p.flood}": 53.0,
"flood.originated{plane=aodv.rreq}": 280.0, "flood.originated{plane=p2p.flood}": 106.0,
"graphfast.bfs_sources{layer=metrics}": 112.0, "graphfast.triangle_runs{layer=metrics}": 1.0,
"kernel.events_daemon": 0.0, "kernel.events_dispatched": 12874.0, "kernel.events_skipped": 0.0,
"kernel.heap": 395.0, "kernel.heap_compactions": 0.0, "kernel.heap_pushes": 5193.0,
"net.frames_delivered{layer=radio}": 11545.0, "net.frames_sent{layer=radio}": 3484.0,
"overlay.connections": 112.0, "overlay.members": 112.0, "p2p.flood_hops.count": 651.0,
"p2p.flood_hops.sum": 1151.0, "p2p.flood_hops.min": 1.0, "p2p.flood_hops.max": 4.0,
"p2p.received{family=connect}": 2212.0, "p2p.received{family=other}": 0.0,
"p2p.received{family=ping}": 212.0, "p2p.received{family=query}": 0.0,
"p2p.received{family=transfer}": 0.0,
"routing.data_forwarded{protocol=aodv}": 293.0,
"routing.rerr_sent{protocol=aodv}": 25.0, "routing.rrep_sent{protocol=aodv}": 538.0,
"routing.rreq_sent{protocol=aodv}": 280.0,
"topology.csr_builds{layer=topology}": 61.0,
"topology.dist_cache_hits{layer=topology}": 0.0,
"topology.rebuilds{layer=topology}": 61.0
}"""
