"""Discrete-event simulation substrate (kernel, processes, RNG streams)."""

from .events import Event, Priority
from .kernel import SimulationError, Simulator
from .process import Process
from .rng import RngRegistry

__all__ = [
    "Event",
    "Priority",
    "SimulationError",
    "Simulator",
    "Process",
    "RngRegistry",
]
