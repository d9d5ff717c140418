#!/usr/bin/env python3
"""Print one ``name sha256`` line per config, for changes that must keep
every run bit-identical: run ``make ab-digest`` at two commits and diff.

A digest covers ``build_scenario`` + ``run`` + ``harvest(...).to_dict()``
(cost counters included) minus the host-dependent ``obs.manifest`` and
``obs.wall``; every config runs 300 s at seed 1.
"""

import hashlib
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.scenarios import ChurnProcess, ScenarioConfig, build_scenario  # noqa: E402
from repro.scenarios.runner import harvest  # noqa: E402

#: ChurnProcess rates of the ``churn-`` entries of CONFIGS (name -> config overrides)
CHURN = {"death_rate": 0.2, "mean_downtime": 20.0}
CONFIGS = {
    "regular": {},
    "basic": {"algorithm": "basic"},
    "random": {"algorithm": "random"},
    "hybrid": {"algorithm": "hybrid"},
    "dsdv": {"routing": "dsdv"},
    "csma-counter2": {"mac": "csma", "rebroadcast": "counter:2"},
    "regular-energy0.05": {"energy_capacity": 0.05},
    "basic-energy0.05": {"algorithm": "basic", "energy_capacity": 0.05},
    "basic-oracle-energy0.02": {
        "algorithm": "basic", "routing": "oracle", "energy_capacity": 0.02
    },
    "churn-regular-aodv": {},
    "churn-hybrid-csma": {"algorithm": "hybrid", "mac": "csma"},
    "churn-random-lossy-gossip": {
        "algorithm": "random", "mac": "lossy", "rebroadcast": "probabilistic:0.5"
    },
    "churn-regular-oracle": {"routing": "oracle"},
    "churn-regular-dsr": {"routing": "dsr"},
}


def digest(name: str) -> str:
    simulation = build_scenario(ScenarioConfig(duration=300.0, seed=1, **CONFIGS[name]))
    if name.startswith("churn-"):
        ChurnProcess(simulation.sim, simulation.world, np.random.default_rng(1), **CHURN).start()
    simulation.run()
    result = harvest(simulation).to_dict()
    for host_dependent in ("manifest", "wall"):
        result.get("obs", {}).pop(host_dependent, None)
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    for name in CONFIGS:
        print(name, digest(name), flush=True)
