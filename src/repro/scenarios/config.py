"""Scenario configuration -- Table 2 of the paper as a dataclass.

``ScenarioConfig()`` with no arguments is exactly the paper's default
scenario: 50 nodes on 100 m x 100 m, 10 m radio range, 75 % of nodes in
the p2p network, random-waypoint mobility at <= 1 m/s with <= 100 s
pauses, 20 Zipf-distributed files (40 % max frequency), 3600 simulated
seconds.  Every experiment is a variation of these fields.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict

from ..core.algorithms import ALGORITHMS
from ..core.config import P2pConfig
from ..core.query import QueryConfig
from ..net.suppression import parse_policy_spec

__all__ = ["ScenarioConfig"]

_MOBILITY_MODELS = ("waypoint", "direction", "gauss-markov", "static")
#: accepted ``ScenarioConfig.routing`` / ``--routing`` values
ROUTINGS = ("aodv", "dsdv", "dsr", "oracle")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario (paper defaults)."""

    # ---- population and world (§7.2) -----------------------------------
    num_nodes: int = 50
    area_width: float = 100.0
    area_height: float = 100.0
    radio_range: float = 10.0
    #: fraction of nodes participating in the p2p overlay
    p2p_fraction: float = 0.75

    # ---- protocols ------------------------------------------------------
    algorithm: str = "regular"
    routing: str = "aodv"
    #: link layer: "ideal" (collision-free, the default substitution),
    #: "csma" (airtime + carrier sensing + receiver-side collisions) or
    #: "lossy" (smooth-disk probabilistic reception near the range edge)
    mac: str = "ideal"

    # ---- mobility (§7.2: Random Way, 1 m/s, 100 s pauses) ---------------
    mobility: str = "waypoint"
    max_speed: float = 1.0
    max_pause: float = 100.0

    # ---- workload --------------------------------------------------------
    num_files: int = 20
    max_freq: float = 0.4
    duration: float = 3600.0

    # ---- infrastructure ---------------------------------------------------
    seed: int = 0
    #: joules per node; inf disables energy depletion
    energy_capacity: float = float("inf")
    #: connectivity-snapshot quantum in seconds (see World); at the
    #: paper's <= 1 m/s this trades <= 0.25 m of position accuracy for a
    #: large event-burst speedup
    snapshot_interval: float = 0.25
    #: "auto", the only legal value: there is one topology backend
    #: (:class:`repro.net.topology.TopologyBackend`)
    topology: str = "auto"
    #: whether the query plane runs (off for pure-reconfiguration studies)
    queries: bool = True
    #: sim-time interval between observability samples; 0 disables the
    #: sampler (counters still accumulate, no time series is recorded)
    obs_interval: float = 0.0
    #: broadcast-plane rebroadcast policy (p2p discovery floods + AODV
    #: RREQ dissemination): ``"flood"`` (reference, bit-identical to the
    #: historical behaviour), ``"probabilistic[:p]"`` (gossip-p with a
    #: degree-adaptive floor), ``"counter[:c]"`` (suppress after c
    #: duplicates heard within a random assessment delay).  See
    #: :mod:`repro.net.suppression`.
    rebroadcast: str = "flood"

    p2p: P2pConfig = field(default_factory=P2pConfig)
    query: QueryConfig = field(default_factory=QueryConfig)

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError(f"need >= 2 nodes, got {self.num_nodes}")
        if not 0 < self.p2p_fraction <= 1:
            raise ValueError(f"p2p_fraction must be in (0, 1], got {self.p2p_fraction}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.routing not in ROUTINGS:
            raise ValueError(f"unknown routing {self.routing!r}")
        if self.mac not in ("ideal", "csma", "lossy"):
            raise ValueError(f"unknown mac {self.mac!r}")
        if self.mobility not in _MOBILITY_MODELS:
            raise ValueError(f"unknown mobility model {self.mobility!r}")
        if self.topology != "auto":
            raise ValueError(
                f"topology {self.topology!r} cannot be selected: one topology "
                'backend; "auto" is the only value'
            )
        parse_policy_spec(self.rebroadcast)  # raises on a bad spec
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.obs_interval < 0:
            raise ValueError(f"obs_interval must be >= 0, got {self.obs_interval}")

    # ------------------------------------------------------------------
    @property
    def num_members(self) -> int:
        """How many nodes join the overlay (75 % of 50 -> 37)."""
        return max(1, int(round(self.num_nodes * self.p2p_fraction)))

    def with_(self, **changes) -> "ScenarioConfig":
        """A modified copy (sugar over dataclasses.replace)."""
        return replace(self, **changes)

    def for_repetition(self, rep: int) -> "ScenarioConfig":
        """The same scenario with the repetition's seed offset."""
        return self.with_(seed=self.seed + rep)

    # ------------------------------------------------------------------
    # serialization (JSON-safe; inf <-> the string "Infinity")
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every field, nested configs included."""
        return {k: _encode(v) for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ScenarioConfig":
        """Inverse of :meth:`to_dict`.

        A key that is not a field -- here or in the nested ``p2p`` /
        ``query`` dicts -- raises ``ValueError``: dropping it would run
        (and cache) a scenario other than the one the dict describes.
        Missing keys take their defaults, so older archives still load.
        """
        kwargs = _known_fields(cls, {k: _decode(v) for k, v in d.items()})
        for name, nested in (("p2p", P2pConfig), ("query", QueryConfig)):
            if isinstance(kwargs.get(name), dict):
                kwargs[name] = nested(**_known_fields(nested, kwargs[name]))
        return cls(**kwargs)


def _known_fields(cls, d: Dict[str, Any]) -> Dict[str, Any]:
    """``d``, once every key is a field of dataclass ``cls``."""
    unknown = sorted(set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    return d


def _encode(v):
    """Recursively make a config value JSON-safe (inf -> "Infinity")."""
    if isinstance(v, dict):
        return {k: _encode(x) for k, x in v.items()}
    if isinstance(v, float) and v == float("inf"):
        return "Infinity"
    if isinstance(v, float) and v == float("-inf"):
        return "-Infinity"
    return v


def _decode(v):
    """Inverse of :func:`_encode`."""
    if isinstance(v, dict):
        return {k: _decode(x) for k, x in v.items()}
    if v == "Infinity":
        return float("inf")
    if v == "-Infinity":
        return float("-inf")
    return v
