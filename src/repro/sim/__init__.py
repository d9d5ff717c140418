"""Discrete-event simulation substrate (kernel, processes, RNG streams)."""

from .events import Event, Priority
from .kernel import SimulationError, Simulator
from .process import Process
from .rng import RngRegistry
from .trace import TraceRecord, TraceRecorder, attach_tracer

__all__ = [
    "TraceRecord",
    "TraceRecorder",
    "attach_tracer",
    "Event",
    "Priority",
    "SimulationError",
    "Simulator",
    "Process",
    "RngRegistry",
]
