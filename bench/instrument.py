"""Install trace spans around the public calls into each layer.

Everything here patches classes and module globals from the outside --
nothing under ``src/`` is edited or aware of it.  Wrappers go onto the
*classes* before any scenario is built, so bound methods that
constructors capture (``count_received=metrics.count_received``,
``flood.deliver = servent._on_flood`` ...) already point at traced code.

Three kinds of span:

* **root spans** -- one per dispatched kernel event.  ``Simulator.run``
  is replaced by a loop over the public ``peek_time()`` / ``step()``
  pair; each event's span is tagged with the layer of the handler it ran
  (a ``Process`` resume counts for the layer of the generator it
  drives).  ``peek_time()`` gets its own ``sim`` span; the queue pop
  inside ``step()`` cannot be separated from the outside and stays in
  the handler's root span.
* **call spans** -- public methods of each layer (``WRAPPED_METHODS``)
  and a few module-level functions (``WRAPPED_FUNCTIONS``), so a call
  *down* into another layer is subtracted from the caller's self time.
* **upcall spans** -- ``NetNode.register`` / ``Router.register`` are
  wrapped so each registered handler runs in a span of its owner's
  layer; that splits the radio -> flood/routing -> overlay upcall chain.
"""

from __future__ import annotations

import inspect
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .trace import Tracer, layer_of_callable, layer_of_module

__all__ = ["Instrumentation", "WRAPPED_METHODS", "WRAPPED_FUNCTIONS"]

#: (module, class, methods): wrapped on the class and on every subclass
#: that overrides them.  Span name = ``<layer>.<Class>.<method>`` with
#: the class named here, so both topology backends share one name.
WRAPPED_METHODS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.sim.kernel", "Simulator", ("schedule_at",)),
    ("repro.sim.events", "Event", ("cancel",)),
    (
        "repro.mobility.base",
        "MobilityModel",
        ("positions", "positions_of", "next_change_horizon"),
    ),
    (
        "repro.net.topology",
        "TopologyBackend",
        ("refresh", "neighbors", "link", "hops_from", "csr", "degrees"),
    ),
    ("repro.net.world", "World", ("positions",)),
    # EnergyModel.charge_tx/charge_rx are deliberately absent: one call
    # per frame copy from the radio layer into itself, ~0.3 us of work
    # under a ~1 us wrapper -- the span would move no time between
    # layers and only inflate radio's self time with tracing overhead
    # (their call counts are frames_sent / frames_delivered).
    ("repro.net.radio", "Channel", ("broadcast", "unicast")),
    ("repro.net.broadcast", "FloodManager", ("originate",)),
    ("repro.routing.base", "Router", ("send", "route_hops")),
    ("repro.core.servent", "Servent", ("send", "flood", "on_p2p")),
    (
        "repro.core.algorithms.base",
        "ReconfigAlgorithm",
        ("on_discovery", "on_message", "handle_ping", "handle_pong"),
    ),
    ("repro.core.query", "QueryEngine", ("issue_query", "on_query", "on_hit")),
    ("repro.metrics.collector", "MetricsCollector", ("count_received",)),
    (
        "repro.metrics.analytics",
        "AnalyticsEngine",
        (
            "harvest",
            "message_curves",
            "message_totals",
            "load_balance",
            "smallworld_stats",
            "connectivity_stats",
            "components",
        ),
    ),
    ("repro.obs.registry", "Registry", ("aggregated",)),
    ("repro.obs.manifest", "RunManifest", ("begin", "finish")),
    ("repro.scenarios.runner", "RunResult", ("to_dict", "from_dict")),
    ("repro.experiments.executor", "ExperimentExecutor", ("run_configs",)),
    ("repro.experiments.cache", "RunCache", ("get", "put")),
    ("repro.experiments.storage", "ResultStore", ("append_run", "records")),
)

#: (module, function): rebound in every loaded ``repro`` module that
#: imported the function by name.  Span name = ``<layer>.<function>``.
WRAPPED_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.scenarios.builder", "build_scenario"),
    ("repro.scenarios.runner", "harvest"),
    ("repro.metrics.aggregate", "per_file_stats"),
    ("repro.metrics.lifetimes", "lifetime_summary"),
    ("repro.experiments.figures", "run_figure"),
    ("repro.experiments.paper_values", "compare_with_paper"),
    ("repro.experiments.export", "figure_result_to_json"),
    ("repro.experiments.export", "figure_result_to_csv"),
    ("repro.experiments.report", "render_figure"),
    ("repro.experiments.report", "render_paper_comparison"),
)

#: imported up front so ``__subclasses__()`` sees every implementation
#: (the builder imports the CSMA / lossy channels lazily)
_IMPLEMENTATION_MODULES = (
    "repro.scenarios.builder",
    "repro.scenarios.runner",
    "repro.net.mac",
    "repro.net.lossy",
    "repro.core.algorithms",
    "repro.experiments",
)


def _all_subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class Instrumentation:
    """Installs every trace wrapper of one tracer, for the life of the
    process (a traced child exits when its workload is done)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: deepest live-event count seen by the traced run loop
        self.peak_pending = 0
        #: route sends whose ``on_fail`` callback fired
        self.route_failures = 0
        #: every Simulation that ran, kept so the child can read live
        #: state (registry size, AODV control counters) after the run
        self.simulations: List[Any] = []

    # ------------------------------------------------------------------
    def install(self) -> "Instrumentation":
        import importlib

        for name in _IMPLEMENTATION_MODULES:
            importlib.import_module(name)
        for module, cls_name, methods in WRAPPED_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._wrap_methods(cls, methods)
        for module, fn_name in WRAPPED_FUNCTIONS:
            self._wrap_function(importlib.import_module(module), fn_name)
        self._wrap_registrations()
        self._wrap_route_failures()
        self._wrap_run_loop()
        self._capture_simulations()
        return self

    def _wrap_methods(self, cls: type, methods: Tuple[str, ...]) -> None:
        for klass in (cls, *_all_subclasses(cls)):
            layer = layer_of_module(klass.__module__)
            if layer is None:  # a test double defined outside repro
                continue
            for method in methods:
                original = vars(klass).get(method)
                if original is None or getattr(original, "__isabstractmethod__", False):
                    continue
                name = f"{layer}.{cls.__name__}.{method}"
                falsy = (cls.__name__, method) == ("Channel", "unicast")
                if isinstance(original, classmethod):
                    traced: Any = classmethod(
                        self.tracer.wrap(original.__func__, name, layer)
                    )
                else:
                    traced = self.tracer.wrap(original, name, layer, count_falsy=falsy)
                setattr(klass, method, traced)

    def _wrap_function(self, module: Any, fn_name: str) -> None:
        original = getattr(module, fn_name)
        layer = layer_of_module(module.__name__) or "experiments"
        traced = self.tracer.wrap(original, f"{layer}.{fn_name}", layer)
        # ``from .builder import build_scenario`` copied the reference
        # into the importer's globals; rebind every such copy.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)

    def _wrap_registrations(self) -> None:
        """Run every registered frame / delivery handler in a span of
        the layer that owns it."""
        from repro.net.radio import NetNode
        from repro.routing.base import Router

        tracer = self.tracer

        def traced_register(original: Callable[..., None], what: str):
            def register(self_: Any, kind: str, handler: Callable[..., Any]) -> None:
                layer = layer_of_callable(handler)
                original(
                    self_, kind, tracer.wrap(handler, f"{layer}.{what}[{kind}]", layer)
                )

            return register

        NetNode.register = traced_register(NetNode.register, "on_frame")
        Router.register = traced_register(Router.register, "deliver")

    def _wrap_route_failures(self) -> None:
        """Count route sends that fail: no upper layer passes ``on_fail``
        today, so the benchmark supplies a counting one (a pure
        callback -- the digest check proves it changes nothing)."""
        from repro.routing.base import Router

        inst = self

        def counting(_payload: Any) -> None:
            inst.route_failures += 1

        for klass in _all_subclasses(Router):
            traced_send = vars(klass).get("send")
            if traced_send is None:
                continue

            def send(self_: Any, src: int, dst: int, payload: Any, *, _send=traced_send, **kw: Any):
                user = kw.get("on_fail")
                if user is None:
                    kw["on_fail"] = counting
                else:

                    def both(p: Any, _user=user) -> None:
                        counting(p)
                        _user(p)

                    kw["on_fail"] = both
                return _send(self_, src, dst, payload, **kw)

            klass.send = send

    def _capture_simulations(self) -> None:
        from repro.scenarios.builder import Simulation

        original = Simulation.run
        simulations = self.simulations

        def run(self_: Any) -> None:
            simulations.append(self_)
            original(self_)

        Simulation.run = run

    def _wrap_run_loop(self) -> None:
        from repro.sim.kernel import Simulator

        tracer = self.tracer
        inst = self
        original_run = Simulator.run
        peek_id = tracer.name_id("sim.Simulator.peek_time", "sim")
        event_ids: Dict[str, int] = {}

        def event_id(layer: str) -> int:
            nid = event_ids.get(layer)
            if nid is None:
                nid = event_ids[layer] = tracer.name_id(f"{layer}.event", layer)
            return nid

        placeholder = event_id("sim")
        #: handler code object -> span name id (``layer_of_callable`` is
        #: too slow to run per event; the code object identifies the
        #: handler, or the driven generator for a ``Process`` resume)
        by_code: Dict[Any, int] = {}

        def handler_id(fn: Callable[..., Any]) -> int:
            gen = getattr(getattr(fn, "__self__", None), "gen", None)
            # unwrap: every traced wrapper shares one code object
            code = getattr(gen, "gi_code", None) or getattr(
                inspect.unwrap(getattr(fn, "__func__", fn)), "__code__", None
            )
            nid = by_code.get(code)
            if nid is None:
                nid = event_id(layer_of_callable(fn))
                if code is not None:
                    by_code[code] = nid
            return nid

        def run(self_: Any, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
            if max_events is not None:  # no workload uses it; keep semantics
                return original_run(self_, until=until, max_events=max_events)
            begin, end = tracer.begin, tracer.end
            peak = inst.peak_pending
            while True:
                idx = begin(peek_id)
                nxt = self_.peek_time()
                end(idx)
                if nxt is None or (until is not None and nxt > until):
                    break
                pending = self_.pending()
                if pending > peak:
                    peak = pending
                idx = begin(placeholder)
                ev = self_.step()
                end(idx, handler_id(ev.fn) if ev is not None else None)
            inst.peak_pending = peak
            # Nothing at or before ``until`` is left: this only advances
            # the clock to the horizon, exactly as the untraced run does.
            original_run(self_, until=until)

        Simulator.run = run
