"""Scenario builder: configuration -> a fully wired simulation.

The :class:`Simulation` bundle owns every layer (kernel, world, channel,
router, overlay, metrics) of one run and is what the runner executes and
harvests.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import List, Optional

from ..aodv.protocol import AodvRouter
from ..core.overlay import OverlayNetwork
from ..dsdv.protocol import DsdvRouter
from ..dsr.protocol import DsrRouter
from ..metrics.analytics import AnalyticsEngine
from ..metrics.collector import MetricsCollector
from ..metrics.lifetimes import LifetimeLog
from ..mobility import (
    Area,
    GaussMarkov,
    MobilityModel,
    RandomDirection,
    RandomWaypoint,
    Static,
)
from ..net.energy import EnergyModel
from ..net.radio import Channel
from ..net.world import World
from ..obs.manifest import RunManifest
from ..obs.registry import Registry
from ..obs.sampler import Sampler
from ..routing.base import Router
from ..routing.oracle import OracleRouter
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from .config import ScenarioConfig

__all__ = ["Simulation", "build_scenario"]


@dataclass
class Simulation:
    """All layers of one wired scenario, ready to run."""

    config: ScenarioConfig
    sim: Simulator
    rng: RngRegistry
    mobility: MobilityModel
    world: World
    channel: Channel
    router: Router
    overlay: OverlayNetwork
    metrics: MetricsCollector
    members: List[int]
    lifetimes: LifetimeLog
    #: shared observability registry (same object every layer reports to)
    registry: Registry = field(default_factory=Registry)
    #: stateless analytics engine the runner harvests through
    analytics: Optional[AnalyticsEngine] = None
    #: periodic time-series sampler; None when ``cfg.obs_interval == 0``
    sampler: Optional[Sampler] = None
    #: per-run provenance record
    manifest: Optional[RunManifest] = None
    _ran: bool = field(default=False, init=False, repr=False)

    def run(self) -> None:
        """Start the overlay (and sampler) and run to the horizon, once."""
        if self._ran:
            raise RuntimeError("this Simulation has already run; build a new one")
        self._ran = True
        # The built world outlives the run and holds no garbage, yet every
        # full pass of the cyclic collector would walk all of it (0.2-0.5 s
        # at n = 10 000) wherever the allocation count happens to trip.
        # Park it in the permanent generation until the horizon, so passes
        # only look at what the run itself allocated.
        gc.freeze()
        try:
            if self.sampler is not None:
                self.sampler.start()
            self.overlay.start(queries=self.config.queries)
            self.sim.run(until=self.config.duration)
            if self.manifest is not None:
                self.manifest.finish()
        finally:
            gc.unfreeze()


def _make_mobility(cfg: ScenarioConfig, rng: RngRegistry) -> MobilityModel:
    area = Area(cfg.area_width, cfg.area_height)
    stream = rng.stream("mobility")
    if cfg.mobility == "waypoint":
        return RandomWaypoint(
            cfg.num_nodes,
            area,
            stream,
            max_speed=cfg.max_speed,
            max_pause=cfg.max_pause,
        )
    if cfg.mobility == "direction":
        return RandomDirection(
            cfg.num_nodes, area, stream, max_speed=cfg.max_speed, max_pause=cfg.max_pause
        )
    if cfg.mobility == "gauss-markov":
        return GaussMarkov(cfg.num_nodes, area, stream, mean_speed=cfg.max_speed)
    return Static(cfg.num_nodes, area, stream)


def build_scenario(cfg: ScenarioConfig) -> Simulation:
    """Wire every layer for ``cfg`` (deterministic given ``cfg.seed``).

    The wiring makes next to no garbage, so the cyclic collector is off
    meanwhile (~500 futile passes at n = 10 000); its state comes back.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _wire(cfg)
    finally:
        if enabled:
            gc.enable()


def _wire(cfg: ScenarioConfig) -> Simulation:
    rng = RngRegistry(cfg.seed)
    sim = Simulator()
    registry = sim.registry  # every layer below shares this one
    mobility = _make_mobility(cfg, rng)
    world = World(
        sim,
        mobility,
        radio_range=cfg.radio_range,
        energy=EnergyModel(cfg.num_nodes, capacity=cfg.energy_capacity),
        snapshot_interval=cfg.snapshot_interval,
    )
    if cfg.mac == "csma":
        from ..net.mac import CsmaChannel

        channel = CsmaChannel(sim, world, seed=cfg.seed)
    elif cfg.mac == "lossy":
        from ..net.lossy import LossyChannel

        channel = LossyChannel(sim, world, seed=cfg.seed)
    else:
        channel = Channel(sim, world)
    router: Router
    if cfg.routing == "aodv":
        router = AodvRouter(sim, channel, rebroadcast=cfg.rebroadcast, rng=rng)
    elif cfg.routing == "dsdv":
        router = DsdvRouter(sim, channel)
    elif cfg.routing == "dsr":
        router = DsrRouter(sim, channel)
    else:
        router = OracleRouter(sim, world)

    # Members: a uniform sample of p2p_fraction of all nodes.
    k = cfg.num_members
    members = sorted(
        int(i) for i in rng.stream("membership").choice(cfg.num_nodes, size=k, replace=False)
    )

    metrics = MetricsCollector(cfg.num_nodes)
    lifetimes = LifetimeLog()
    overlay = OverlayNetwork(
        sim,
        world,
        channel,
        router,
        members=members,
        algorithm=cfg.algorithm,
        config=cfg.p2p,
        query_config=cfg.query,
        num_files=cfg.num_files,
        max_freq=cfg.max_freq,
        rng=rng,
        count_received=metrics.count_received,
        lifetime_log=lifetimes,
        rebroadcast=cfg.rebroadcast,
    )

    # Top-level gauges: live views the sampler snapshots each interval.
    registry.gauge("energy.consumed", fn=world.energy.total_consumed)
    registry.gauge("overlay.connections", fn=overlay.open_connections)
    registry.gauge("overlay.members", fn=lambda: len(overlay.members))
    for fam in metrics.received:
        registry.gauge(
            "p2p.received", fn=(lambda f=fam: metrics.total(f)), family=fam
        )

    analytics = AnalyticsEngine(registry=registry)

    sampler = (
        Sampler(sim, registry, cfg.obs_interval) if cfg.obs_interval > 0 else None
    )
    manifest = RunManifest.begin(cfg.to_dict(), cfg.seed)
    return Simulation(
        config=cfg,
        sim=sim,
        rng=rng,
        mobility=mobility,
        world=world,
        channel=channel,
        router=router,
        overlay=overlay,
        metrics=metrics,
        members=members,
        lifetimes=lifetimes,
        registry=registry,
        analytics=analytics,
        sampler=sampler,
        manifest=manifest,
    )
