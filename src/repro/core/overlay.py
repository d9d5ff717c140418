"""Overlay network manager: builds and wires all servents.

One :class:`OverlayNetwork` owns the p2p side of a simulation: it
creates the discovery flood plane, relayed by *every* ad-hoc node
(non-members still forward discovery broadcasts -- they are part of the
ad-hoc network), a servent with the chosen (re)configuration algorithm
on each *member*, places files by the Zipf law, and dispatches routed
p2p messages to the right servent.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

import networkx as nx
import numpy as np

from ..net.broadcast import FloodManager
from ..net.radio import Channel
from ..net.suppression import (
    QUERY_POLICY_KINDS,
    ContactPolicy,
    make_rebroadcast_policy,
    parse_policy_spec,
)
from ..net.world import World
from ..obs.registry import Registry
from ..routing.base import Router
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from .algorithms import HybridAlgorithm, make_algorithm
from .config import P2pConfig
from .files import FileStore, place_files
from .messages import P2pMessage
from .query import QueryConfig
from .servent import P2P_KIND, Servent

__all__ = ["OverlayNetwork", "FLOOD_KIND"]

#: frame kind of the p2p discovery flood plane
FLOOD_KIND = "p2p.flood"


class OverlayNetwork:
    """All p2p members of one simulation plus their shared wiring.

    Parameters
    ----------
    sim, world, channel, router:
        The substrate stack.
    members:
        Node ids participating in the p2p network (the paper uses 75 %
        of all nodes).
    algorithm:
        One of ``"basic" | "regular" | "random" | "hybrid"``.
    config, query_config:
        Protocol constants.
    num_files, max_freq:
        Zipf file universe (Table 2: 20 files, 40 %).
    rng:
        Registry for deterministic per-subsystem streams.
    qualifiers:
        Hybrid only: node id -> qualifier.  Defaults to U(0, 1) draws.
    count_received:
        Metrics hook ``(nid, family)`` shared by all servents.
    registry:
        Observability registry shared by the flood planes and servents;
        defaults to the channel's registry.
    rebroadcast:
        Rebroadcast-policy spec for the discovery flood plane
        (``"flood" | "probabilistic[:p]" | "counter[:c]" | "contact"``,
        see :mod:`repro.net.suppression`).  ``"flood"`` forwards every
        first copy at once.
    query_policy:
        Query-plane policy: ``"flood"`` (reference Gnutella flood) or
        ``"contact"`` (route to known holders first, scoped-flood
        fallback).
    """

    def __init__(
        self,
        sim: Simulator,
        world: World,
        channel: Channel,
        router: Router,
        *,
        members: Sequence[int],
        algorithm: str,
        config: Optional[P2pConfig] = None,
        query_config: Optional[QueryConfig] = None,
        num_files: int = 20,
        max_freq: float = 0.4,
        rng: Optional[RngRegistry] = None,
        qualifiers: Optional[Dict[int, float]] = None,
        count_received: Optional[Callable[[int, str], None]] = None,
        lifetime_log=None,
        registry: Optional[Registry] = None,
        rebroadcast: str = "flood",
        query_policy: str = "flood",
    ) -> None:
        self.sim = sim
        self.world = world
        self.channel = channel
        self.router = router
        self.algorithm_name = algorithm
        self.cfg = config if config is not None else P2pConfig()
        self.query_cfg = query_config if query_config is not None else QueryConfig()
        self.rng = rng if rng is not None else RngRegistry(0)
        self.members: List[int] = sorted(int(m) for m in members)
        if not self.members:
            raise ValueError("overlay needs at least one member")
        if max(self.members) >= world.n or min(self.members) < 0:
            raise ValueError("member ids must be valid node ids")

        if registry is None:
            registry = getattr(channel, "registry", None)
        self.registry = registry if registry is not None else Registry()

        spec = parse_policy_spec(rebroadcast)
        self.rebroadcast = str(spec)
        if query_policy not in QUERY_POLICY_KINDS:
            raise ValueError(
                f"unknown query policy {query_policy!r} (choose from {QUERY_POLICY_KINDS})"
            )
        self.query_policy = query_policy

        # One flood plane that every node relays; non-members forward but
        # don't listen.  A per-node suppression policy (None: always
        # forward) decides its rebroadcasts; the rng stream and degree
        # view are created lazily so a node that never draws touches
        # neither.
        self.flood = FloodManager(
            channel,
            FLOOD_KIND,
            registry=self.registry,
            policies=[
                make_rebroadcast_policy(
                    spec,
                    plane=FLOOD_KIND,
                    node=node.nid,
                    registry=self.registry,
                    sim=sim,
                    rng_factory=(
                        lambda nid=node.nid: self.rng.stream(
                            f"suppression.{FLOOD_KIND}.{nid}"
                        )
                    ),
                    degree=(lambda nid=node.nid: len(world.neighbors(nid))),
                )
                for node in channel.nodes
            ],
        )

        holdings = place_files(
            self.members, num_files, max_freq, self.rng.stream("files")
        )

        if qualifiers is None:
            qstream = self.rng.stream("qualifiers")
            qualifiers = {m: float(qstream.uniform(0.0, 1.0)) for m in self.members}
        self.qualifiers = qualifiers

        self.servents: Dict[int, Servent] = {}
        for m in self.members:
            qpolicy = None
            if query_policy == "contact":
                # Share the member's flood-plane contact table when the
                # broadcast plane harvests one too; otherwise the query
                # plane keeps its own (fed by query answers only).
                flood_policy = self.flood.policies[m]
                qpolicy = (
                    flood_policy
                    if isinstance(flood_policy, ContactPolicy)
                    else ContactPolicy(
                        registry=self.registry, plane="p2p.query", node=m
                    )
                )
            servent = Servent(
                m,
                sim,
                world,
                router,
                self.flood,
                config=self.cfg,
                query_config=self.query_cfg,
                store=FileStore(m, holdings[m]),
                num_files=num_files,
                rng=self.rng.stream(f"p2p.node.{m}"),
                count_received=count_received,
                lifetime_log=lifetime_log,
                registry=self.registry,
                query_policy=qpolicy,
            )
            alg = make_algorithm(
                algorithm,
                servent,
                self.cfg,
                self.rng.stream(f"alg.node.{m}"),
                qualifier=self.qualifiers.get(m, 1.0),
            )
            servent.attach_algorithm(alg)
            self.servents[m] = servent

        router.register(P2P_KIND, self._dispatch)

    # ------------------------------------------------------------------
    def _dispatch(self, dst: int, src: int, payload: P2pMessage, hops: int) -> None:
        servent = self.servents.get(dst)
        if servent is not None:
            servent.on_p2p(src, payload, hops)

    # ------------------------------------------------------------------
    def start(self, *, queries: bool = True) -> None:
        """Start every servent's algorithm (and query loop)."""
        for servent in self.servents.values():
            servent.start(queries=queries)

    def stop(self) -> None:
        for servent in self.servents.values():
            servent.stop()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def servent(self, nid: int) -> Servent:
        return self.servents[nid]

    def graph(self) -> nx.Graph:
        """Undirected snapshot of the current overlay references.

        An edge exists if either endpoint references the other; Hybrid
        master-slave links are included.  Every member appears as a node
        even when isolated.
        """
        g = nx.Graph()
        g.add_nodes_from(self.members)
        for servent in self.servents.values():
            for conn in servent.connections:
                g.add_edge(servent.nid, conn.peer, random=conn.random)
            alg = servent.algorithm
            if isinstance(alg, HybridAlgorithm):
                for conn in alg.slaves:
                    g.add_edge(servent.nid, conn.peer, slave=True)
        return g

    def connection_counts(self) -> Dict[int, int]:
        """Member -> current number of references held."""
        return {m: s.connections.count for m, s in self.servents.items()}

    def open_connections(self) -> int:
        """Total references currently held across all members."""
        return sum(s.connections.count for s in self.servents.values())

    def query_records(self):
        """All finished QueryRecords across members (metrics harvest)."""
        out = []
        for servent in self.servents.values():
            out.extend(servent.query_engine.records)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<OverlayNetwork alg={self.algorithm_name} members={len(self.members)}>"
        )
