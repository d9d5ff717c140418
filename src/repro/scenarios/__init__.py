"""Scenario configuration (Table 2), building and running."""

from .builder import Simulation, build_scenario
from .churn import ChurnEvent, ChurnProcess
from .config import ScenarioConfig
from .runner import RunResult, run_scenario

__all__ = [
    "Simulation",
    "build_scenario",
    "ChurnEvent",
    "ChurnProcess",
    "ScenarioConfig",
    "RunResult",
    "run_scenario",
]
