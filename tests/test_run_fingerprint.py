"""Run fingerprint: one sha256 per whole run, pinned in
``tests/data/run_digests.txt``.

A digest covers ``build_scenario`` + ``run`` + ``harvest(...).to_dict()``
(cost counters included) minus the host-dependent ``obs.manifest`` and
``obs.wall``.  Every config runs at seed 1, for 300 s unless it sets its
own duration.  A change meant to keep every run bit-identical must pass
this file untouched; one that moves runs on purpose re-records it with
``make ab-digest > tests/data/run_digests.txt``.

Float and RNG streams may differ between interpreter and numpy releases,
so the data file's header names the pair it was recorded on and the test
skips on any other.
"""

import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.core.query import QueryConfig
from repro.scenarios import ChurnProcess, ScenarioConfig, build_scenario
from repro.scenarios.runner import harvest

DATA = Path(__file__).parent / "data" / "run_digests.txt"

#: the data file's first line: the versions its digests hold for
HEADER = f"# python {platform.python_version()} numpy {np.__version__}"

#: ChurnProcess rates of the ``churn-`` entries of CONFIGS
CHURN = {"death_rate": 0.2, "mean_downtime": 20.0}

#: the bench's dense_query shape: radio degree 20, zipf queries
_DENSE_SIDE = math.sqrt(600 * math.pi * 10.0**2 / 20.0)

#: the bench's metro_mobility shape at n = 1 000: the paper's density
_METRO_SIDE = 100.0 * math.sqrt(1000 / 50.0)

#: name -> ScenarioConfig overrides
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
    "dense-query-n600": {
        "num_nodes": 600,
        "area_width": _DENSE_SIDE,
        "area_height": _DENSE_SIDE,
        "duration": 4.0,
        "query": QueryConfig(
            warmup=2.0, response_wait=4.0, gap_min=2.0, gap_max=6.0, target="zipf"
        ),
    },
    # most nodes drain within the run: the per-copy delivery body runs
    "lossy-energy0.03": {"mac": "lossy", "energy_capacity": 0.03},
    "csma-energy0.03": {"mac": "csma", "energy_capacity": 0.03},
    # a build without queries: no member ever draws from its query stream
    "metro-n1000-noqueries": {
        "num_nodes": 1000,
        "area_width": _METRO_SIDE,
        "area_height": _METRO_SIDE,
        "queries": False,
        "duration": 5.0,
    },
    "mobility-direction": {"mobility": "direction"},
    "mobility-gauss-markov": {"mobility": "gauss-markov"},
    "gossip0.5-ideal": {"rebroadcast": "probabilistic:0.5"},
}


def digest(name: str) -> str:
    """The sha256 of config ``name``'s harvested run."""
    config = {"duration": 300.0, "seed": 1, **CONFIGS[name]}
    simulation = build_scenario(ScenarioConfig(**config))
    if name.startswith("churn-"):
        ChurnProcess(simulation.sim, simulation.world, np.random.default_rng(1), **CHURN).start()
    simulation.run()
    result = harvest(simulation).to_dict()
    for host_dependent in ("manifest", "wall"):
        result.get("obs", {}).pop(host_dependent, None)
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def test_every_run_matches_its_recorded_digest():
    header, *lines = DATA.read_text().splitlines()
    if header != HEADER:
        pytest.skip(f"digests recorded on {header[2:]}; this is {HEADER[2:]}")
    recorded = dict(line.split() for line in lines)
    assert list(recorded) == list(CONFIGS)
    moved = [name for name in CONFIGS if digest(name) != recorded[name]]
    assert not moved, f"runs moved: {', '.join(moved)}"
