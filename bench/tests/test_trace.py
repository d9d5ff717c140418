"""Span self-time accounting and layer mapping (no simulator involved)."""

import os

import numpy as np
import pytest

from bench.trace import LAYERS, Tracer, layer_of_callable, layer_of_module, self_times

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9];  second root [10,12]
    start = np.array([0.0, 1.0, 2.0, 5.0, 10.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    own = self_times(start, end, parent)
    assert own.tolist() == [10 - 3 - 4, 3 - 1, 1, 4, 2]
    # self times partition the time the roots cover
    assert own.sum() == pytest.approx((end - start)[parent < 0].sum())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0  # every reading advances one "second"
        return self.now


def test_tracer_nests_by_call_stack_and_sums_per_layer():
    tracer = Tracer(clock=FakeClock())

    def leaf():
        return 0

    traced_leaf = tracer.wrap(leaf, "radio.leaf", "radio", count_falsy=True)

    def outer():
        traced_leaf()
        traced_leaf()
        return "x"

    traced_outer = tracer.wrap(outer, "sim.outer", "sim")
    assert traced_outer() == "x"
    summary = tracer.summary()
    # clock readings: outer start=1, leaf 2..3, leaf 4..5, outer end=6
    assert summary["by_name"]["sim.outer"] == {
        "layer": "sim", "calls": 1, "total_s": 5.0, "self_s": 3.0, "falsy": 0,
    }
    assert summary["by_name"]["radio.leaf"]["calls"] == 2
    assert summary["by_name"]["radio.leaf"]["falsy"] == 2
    assert summary["by_layer"]["sim"] == 3.0
    assert summary["by_layer"]["radio"] == 2.0
    assert summary["root_s"] == 5.0
    assert set(summary["by_layer"]) == set(LAYERS)


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "sim.boom", "sim")()
    with tracer.span("sim.after", "sim"):
        pass
    start, end, _name, parent = tracer.columns()
    assert (end > start).all()
    assert parent.tolist() == [-1, -1]  # the failed span did not stay open


def test_window_restricts_to_spans_begun_inside_it():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("scenarios.build", "scenarios"):
        pass
    lo = len(tracer)
    with tracer.span("sim.event", "sim"):
        with tracer.span("radio.tx", "radio"):
            pass
    hi = len(tracer)
    with tracer.span("experiments.after", "experiments"):
        pass
    summary = tracer.summary((lo, hi))
    assert summary["window_root_s"] == 3.0
    assert summary["window_by_layer"]["sim"] == 2.0
    assert summary["window_by_layer"]["radio"] == 1.0
    assert summary["window_by_layer"]["scenarios"] == 0.0


def test_a_span_name_belongs_to_one_layer():
    tracer = Tracer()
    tracer.name_id("x.y", "sim")
    with pytest.raises(ValueError):
        tracer.name_id("x.y", "radio")


def _modules():
    root = os.path.join(SRC, "repro")
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, f), SRC)[:-3]
                parts = rel.split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                yield ".".join(parts)


def test_every_module_maps_to_exactly_one_known_layer():
    modules = sorted(_modules())
    assert len(modules) > 80
    for module in modules:
        assert layer_of_module(module) in LAYERS, module
    expected = {
        "repro.sim.kernel": "sim",
        "repro.sim.process": "sim",
        "repro.mobility.waypoint": "mobility",
        "repro.net.topology": "topology",
        "repro.net.world": "topology",
        "repro.net.radio": "radio",
        "repro.net.mac": "radio",
        "repro.net.energy": "radio",
        "repro.net.broadcast": "flood",
        "repro.net.suppression": "flood",
        "repro.aodv.protocol": "routing",
        "repro.dsr.protocol": "routing",
        "repro.routing.oracle": "routing",
        "repro.core.algorithms.hybrid": "overlay",
        "repro.core.servent": "overlay",
        "repro.core.query": "query",
        "repro.core.files": "query",
        "repro.metrics.analytics": "metrics",
        "repro.obs.registry": "obs",
        "repro.scenarios.builder": "scenarios",
        "repro.experiments.executor": "experiments",
        "repro.cli": "experiments",
    }
    for module, layer in expected.items():
        assert layer_of_module(module) == layer, module
    assert layer_of_module("numpy.linalg") is None
    assert layer_of_module("reproduction") is None  # prefix match is per component


def test_layer_of_callable_follows_owner_and_generator():
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process

    sim = Simulator()
    assert layer_of_callable(sim.step) == "sim"

    def loop():  # a generator defined outside repro falls back to the default
        yield 1.0

    proc = Process(sim, loop())
    assert layer_of_callable(proc._advance, default="overlay") == "overlay"
    from repro.core.query import QueryEngine

    assert layer_of_callable(QueryEngine.on_query) == "query"
