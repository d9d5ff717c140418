"""The four benchmark workloads: what each one runs and why.

A workload turns ``(seed, scale)`` into inputs; the program under test
only ever sees the generated configs.  ``scale="full"`` is what
``BENCHMARK.json`` measures; ``scale="smoke"`` shrinks durations (and
the metro node count) so the test suite can drive the whole harness in
seconds.

The full-scale durations are ISSUE 11's shapes cut to fit the driver's
time cap (92 runs in 3420 s, each with >= 3 fresh-process reps): the
paper world runs 450 s per algorithm instead of 1800 s, ``dense_query``
8 s instead of 20 s, ``metro_mobility`` 5 s instead of 20 s and
``reproduce_figs`` 20 s x 2 reps instead of 60 s x 2.  Node counts,
densities, algorithms and query timing are the issue's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "FIGURES", "WARM_PASSES"]

#: figures the ``reproduce_figs`` workload regenerates
FIGURES: Tuple[str, ...] = tuple(f"fig{i}" for i in range(5, 13))

#: warm ``reproduce_all`` passes on the cold pass's archive, per child
WARM_PASSES = 20

_ALGORITHMS = ("basic", "regular", "random", "hybrid")


def _paper_table2(seed: int, p: Dict[str, Any]) -> List[Any]:
    from repro.scenarios.config import ScenarioConfig

    # Table-2 defaults; only algorithm, horizon and seed vary.
    return [
        ScenarioConfig(algorithm=alg, duration=p["duration"], seed=seed)
        for alg in _ALGORITHMS
    ]


def _dense_query(seed: int, p: Dict[str, Any]) -> List[Any]:
    from repro.core.query import QueryConfig
    from repro.scenarios.config import ScenarioConfig

    n = p["n"]
    side = math.sqrt(n * math.pi * 10.0**2 / p["degree"])
    return [
        ScenarioConfig(
            num_nodes=n,
            area_width=side,
            area_height=side,
            topology="auto",
            algorithm="regular",
            duration=p["duration"],
            seed=seed,
            query=QueryConfig(
                warmup=2.0, response_wait=4.0, gap_min=2.0, gap_max=6.0, target="zipf"
            ),
        )
    ]


def _metro_mobility(seed: int, p: Dict[str, Any]) -> List[Any]:
    from repro.scenarios.config import ScenarioConfig

    n = p["n"]
    side = 100.0 * math.sqrt(n / 50.0)  # the paper's density
    return [
        ScenarioConfig(
            num_nodes=n,
            area_width=side,
            area_height=side,
            topology="auto",
            queries=False,
            duration=p["duration"],
            seed=seed,
        )
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: one sentence for BENCHMARK.json (<= 200 characters)
    why: str
    #: scale -> parameters of the config maker / the reproduce_all call
    params: Dict[str, Dict[str, Any]]
    #: ``(seed, params) -> [ScenarioConfig]`` run back to back, or None
    #: for the workload that calls ``reproduce_all`` instead
    make: Optional[Callable[[int, Dict[str, Any]], List[Any]]] = None

    @property
    def kind(self) -> str:
        return "scenarios" if self.make is not None else "reproduce"

    def scenario_configs(self, seed: int, scale: str) -> List[Any]:
        """The ScenarioConfigs of a ``scenarios`` workload."""
        if self.make is None:
            raise ValueError(f"{self.name} is not a scenarios workload")
        return self.make(seed, self.params[scale])

    def reproduce_settings(self, seed: int, scale: str) -> Dict[str, Any]:
        """Keyword arguments of the ``reproduce_all`` call."""
        p = self.params[scale]
        return {
            "figures": list(FIGURES),
            "duration": p["duration"],
            "reps": p["reps"],
            "seed": seed,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_table2",
            why=(
                "Paper Table-2 world (50 nodes, degree 1.5) under all four algorithms: "
                "shallow timer-driven queue, dense backend; deep-queue or fan-out gains must not move it."
            ),
            make=_paper_table2,
            params={"full": {"duration": 450.0}, "smoke": {"duration": 20.0}},
        ),
        Workload(
            name="dense_query",
            why=(
                "n=600 at radio degree 20 with zipf queries on the sparse grid: radio delivery, AODV control "
                "handling and topology reads dominate (flood dedup is small); many copies per transmission."
            ),
            make=_dense_query,
            params={
                "full": {"n": 600, "degree": 20.0, "duration": 8.0},
                "smoke": {"n": 600, "degree": 20.0, "duration": 2.0},
            },
        ),
        Workload(
            name="metro_mobility",
            why=(
                "n=10000 at paper density, queries off: per-node construction, 20k pending timers, registry "
                "aggregation and harvest dominate; topology writes with few reads; largest setup_s and RSS."
            ),
            make=_metro_mobility,
            params={
                "full": {"n": 10_000, "duration": 5.0},
                "smoke": {"n": 1_000, "duration": 1.0},
            },
        ),
        Workload(
            name="reproduce_figs",
            why=(
                "reproduce_all(figs 5-12) through executor + fresh RunCache: cold pass writes the archive "
                "(64 planned, 16 executed), warm passes read it back; the command users run."
            ),
            params={
                "full": {"duration": 20.0, "reps": 2},
                "smoke": {"duration": 3.0, "reps": 2},
            },
        ),
    )
}
