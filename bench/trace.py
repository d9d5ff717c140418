"""In-memory span recorder for the traced benchmark child.

A span is ``(name, layer, start, end, parent)``.  The tracer keeps them
in parallel ``array`` columns (24 bytes per span, so a few million spans
fit comfortably), never touches the disk while the workload runs, and
computes self times only afterwards:

    self time = duration - time covered by direct child spans

Spans nest by the Python call stack (one thread, no interleaving), so a
span's parent is whatever span was open when it began and children never
overlap each other.

Only the benchmark installs spans (see :mod:`instrument`); nothing under
``src/`` knows about this module.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["LAYERS", "layer_of_module", "layer_of_callable", "self_times", "Tracer"]

#: The repo's layers, in bottom-up order (ISSUE 11 / bench/README.md).
LAYERS: Tuple[str, ...] = (
    "sim",
    "mobility",
    "topology",
    "radio",
    "flood",
    "routing",
    "overlay",
    "query",
    "metrics",
    "obs",
    "scenarios",
    "experiments",
)

#: module prefix -> layer; the longest matching prefix wins, so
#: ``repro.net.topology`` is "topology" while the rest of ``repro.net``
#: is "radio", and ``repro.core.query`` is "query" while the rest of
#: ``repro.core`` is "overlay".
_PREFIX_LAYER: Tuple[Tuple[str, str], ...] = (
    ("repro", "experiments"),  # package root, cli, parallel: orchestration
    ("repro.sim", "sim"),
    ("repro.mobility", "mobility"),
    ("repro.net", "radio"),
    ("repro.net.topology", "topology"),
    ("repro.net.world", "topology"),
    ("repro.net.broadcast", "flood"),
    ("repro.net.suppression", "flood"),
    ("repro.aodv", "routing"),
    ("repro.dsdv", "routing"),
    ("repro.dsr", "routing"),
    ("repro.routing", "routing"),
    ("repro.core", "overlay"),
    ("repro.core.query", "query"),
    ("repro.core.files", "query"),
    ("repro.metrics", "metrics"),
    ("repro.theory", "metrics"),
    ("repro.obs", "obs"),
    ("repro.scenarios", "scenarios"),
    ("repro.experiments", "experiments"),
)


def layer_of_module(module: str) -> Optional[str]:
    """The layer owning dotted ``module`` name, or None outside ``repro``."""
    best: Optional[Tuple[int, str]] = None
    for prefix, layer in _PREFIX_LAYER:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), layer)
    return best[1] if best is not None else None


def layer_of_callable(fn: Callable[..., Any], default: str = "sim") -> str:
    """The layer of the code a callback runs.

    Bound methods resolve through their owner's class; a
    :class:`repro.sim.process.Process` resume resolves to the module of
    the generator it drives (the control loop lives in the protocol
    layer, not in the kernel); partials resolve through ``.func``.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    owner = getattr(fn, "__self__", None)
    module = None
    if owner is not None:
        gen = getattr(owner, "gen", None)
        if gen is not None and hasattr(gen, "gi_code"):
            # gi_frame is gone once the generator has finished
            found = inspect.getmodule(gen.gi_code)
            module = found.__name__ if found is not None else None
        else:
            module = type(owner).__module__
    if module is None:
        module = getattr(fn, "__module__", None)
    layer = layer_of_module(module) if module else None
    return layer if layer is not None else default


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the time direct children cover.

    ``parent[i]`` is the index of span ``i``'s parent or -1 for a root.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


class Tracer:
    """Records nested spans; summarises them per name and per layer."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        #: open-span stack; -1 is the "no span" sentinel at the bottom
        self._stack: List[int] = [-1]
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        #: name id -> calls that returned a falsy value (opt-in per wrap)
        self.falsy: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._start)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        """Intern a span name; a name belongs to exactly one layer."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        elif self.layers[nid] != layer:
            raise ValueError(
                f"span name {name!r} already belongs to layer {self.layers[nid]!r}"
            )
        return nid

    def begin(self, nid: int) -> int:
        """Open a span; returns its index (pass it to :meth:`end`)."""
        idx = len(self._start)
        self._parent.append(self._stack[-1])
        self._name.append(nid)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(self.clock())
        return idx

    def end(self, idx: int, nid: Optional[int] = None) -> None:
        """Close span ``idx`` (optionally renaming it -- the kernel only
        tells us which handler an event ran after dispatching it)."""
        self._end[idx] = self.clock()
        if nid is not None:
            self._name[idx] = nid
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        idx = self.begin(self.name_id(name, layer))
        try:
            yield
        finally:
            self.end(idx)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        *,
        count_falsy: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` running inside a span.  The hot path is a closure over
        the column appenders so a span costs about a microsecond."""
        nid = self.name_id(name, layer)
        starts, ends, names, parents = self._start, self._end, self._name, self._parent
        stack, clock = self._stack, self.clock
        falsy = self.falsy

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            parents.append(stack[-1])
            names.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_falsy and not result:
                falsy[nid] = falsy.get(nid, 0) + 1
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(start, end, name_id, parent)`` as numpy arrays."""
        return (
            np.array(self._start, dtype=np.float64),
            np.array(self._end, dtype=np.float64),
            np.array(self._name, dtype=np.int64),
            np.array(self._parent, dtype=np.int64),
        )

    def summary(self, window: Optional[Tuple[int, int]] = None) -> Dict[str, Any]:
        """Per-name and per-layer totals over every closed span.

        ``by_name[name] = {layer, calls, total_s, self_s, falsy}``;
        ``by_layer[layer] = self seconds``; ``root_s`` is the wall the
        root spans cover (what the trace can attribute at all).
        ``window = (lo, hi)`` additionally reports ``window_root_s`` and
        ``window_by_layer`` over the spans recorded while ``len(tracer)``
        went from ``lo`` to ``hi`` -- the timed part of a run.
        """
        start, end, name, parent = self.columns()
        n_names = len(self.names)
        by_layer = {layer: 0.0 for layer in LAYERS}
        if not len(start):
            return {"by_name": {}, "by_layer": by_layer, "root_s": 0.0, "spans": 0}
        self_s = self_times(start, end, parent)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=end - start, minlength=n_names)
        own = np.bincount(name, weights=self_s, minlength=n_names)
        by_name: Dict[str, Dict[str, Any]] = {}
        for nid in range(n_names):
            if not calls[nid]:
                continue
            layer = self.layers[nid]
            by_name[self.names[nid]] = {
                "layer": layer,
                "calls": int(calls[nid]),
                "total_s": float(total[nid]),
                "self_s": float(own[nid]),
                "falsy": self.falsy.get(nid, 0),
            }
            by_layer[layer] = by_layer.get(layer, 0.0) + float(own[nid])
        roots = parent < 0
        out = {
            "by_name": by_name,
            "by_layer": by_layer,
            "root_s": float((end[roots] - start[roots]).sum()),
            "spans": int(len(start)),
        }
        if window is not None:
            lo, hi = window
            inside = np.zeros(len(start), dtype=bool)
            inside[lo:hi] = True
            layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
            span_layer = np.array([layer_ids[l] for l in self.layers], dtype=np.int64)[name]
            own_by_layer = np.bincount(
                span_layer[inside], weights=self_s[inside], minlength=len(LAYERS)
            )
            out["window_by_layer"] = dict(zip(LAYERS, map(float, own_by_layer)))
            out["window_root_s"] = float((end - start)[roots & inside].sum())
        return out

    def write(self, path: str) -> None:
        """Dump the raw spans (``numpy.savez_compressed``) for offline study."""
        start, end, name, parent = self.columns()
        np.savez_compressed(
            path,
            start=start,
            end=end,
            name=name.astype(np.int32),
            parent=parent.astype(np.int32),
            names=np.array(self.names),
            layers=np.array(self.layers),
        )
