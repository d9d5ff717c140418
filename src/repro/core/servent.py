"""The servent: one p2p participant tying together its connection
table, (re)configuration algorithm, file store and query engine.

A servent does not talk to the radio directly; it uses

* ``send``  -- unicast a p2p message over the routing layer, and
* ``flood`` -- TTL-limited controlled broadcast for discovery,

and receives everything through :meth:`on_p2p` (routed unicasts) and
:meth:`on_flood` (discovery floods), which also feed the per-family
received-message counters the paper's Figures 7-12 are built from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..net.broadcast import FloodManager
from ..net.topology import UNREACHABLE
from ..net.world import World
from ..obs.registry import Registry
from ..routing.base import Router
from ..sim.kernel import Simulator
from .config import P2pConfig
from .connection import ConnectionTable
from .files import FileStore
from .messages import FileData, FileRequest, P2pMessage, Ping, Pong, Query, QueryHit
from .query import QueryConfig, QueryEngine, StreamSource

if TYPE_CHECKING:  # pragma: no cover
    from .algorithms.base import ReconfigAlgorithm

__all__ = ["Servent", "P2P_KIND"]

#: routing-layer kind for unicast p2p messages
P2P_KIND = "p2p"


class Servent:
    """One peer of the overlay.

    Parameters
    ----------
    nid:
        Node id (also the ad-hoc address).
    sim, world, router:
        Substrate handles.
    flood:
        The discovery flood plane; this servent installs its node's
        callbacks on it.
    config, query_config:
        Protocol constants.
    store:
        The files this node shares.
    num_files:
        Total distinct files in the network (query target space).
    query_rng:
        The query engine's stream, or a callable that creates it.
    count_received:
        Metrics hook ``count_received(nid, family)`` fired for every
        p2p message copy this node receives.
    registry:
        Observability registry; defaults to the flood plane's (and
        hence the whole simulation's) registry.
    """

    def __init__(
        self,
        nid: int,
        sim: Simulator,
        world: World,
        router: Router,
        flood: FloodManager,
        *,
        config: P2pConfig,
        query_config: QueryConfig,
        store: FileStore,
        num_files: int,
        query_rng: StreamSource,
        count_received: Optional[Callable[[int, str], None]] = None,
        lifetime_log=None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.nid = nid
        self.sim = sim
        self.world = world
        self.router = router
        self.flood_plane = flood
        self.cfg = config
        self.store = store
        self.num_files = num_files
        self.count_received = count_received
        #: optional LifetimeLog for closed-connection statistics
        self.lifetime_log = lifetime_log
        self.connections = ConnectionTable(nid, config.max_connections)
        self.query_engine = QueryEngine(self, query_config, query_rng)
        self.algorithm: Optional["ReconfigAlgorithm"] = None
        if registry is None:
            registry = getattr(flood, "registry", None)
        self.registry = registry if registry is not None else Registry()
        self._h_flood_hops = self.registry.histogram("p2p.flood_hops")
        # Wire the flood plane into this servent.
        flood.deliver[nid] = self._on_flood
        flood.count_duplicate[nid] = self._on_flood_duplicate

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach_algorithm(self, algorithm: "ReconfigAlgorithm") -> None:
        if self.algorithm is not None:
            raise RuntimeError(f"servent {self.nid} already has an algorithm")
        self.algorithm = algorithm

    def start(self, *, queries: bool = True) -> None:
        """Start (re)configuration and, optionally, the query loop."""
        if self.algorithm is None:
            raise RuntimeError(f"servent {self.nid} has no algorithm attached")
        self.algorithm.start()
        if queries:
            self.query_engine.start()

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def send(self, peer: int, msg: P2pMessage) -> None:
        """Unicast ``msg`` to ``peer`` over the ad-hoc routing layer."""
        self.router.send(self.nid, peer, msg, kind=P2P_KIND, size=msg.SIZE)

    def flood(self, msg: P2pMessage, nhops: int) -> None:
        """Controlled-broadcast ``msg`` within ``nhops`` ad-hoc hops."""
        self.flood_plane.originate(self.nid, msg, nhops=nhops, size=msg.SIZE)

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def on_p2p(self, src: int, msg: P2pMessage, hops: int) -> None:
        """Routed p2p message delivery (called by the overlay dispatcher)."""
        self._count(msg.FAMILY)
        if isinstance(msg, Ping):
            self.algorithm.handle_ping(src, msg, hops)
        elif isinstance(msg, Pong):
            self.algorithm.handle_pong(src, msg, hops)
        elif isinstance(msg, Query):
            self.query_engine.on_query(src, msg)
        elif isinstance(msg, QueryHit):
            self.query_engine.on_hit(src, msg)
        elif isinstance(msg, FileRequest):
            self.query_engine.on_file_request(src, msg)
        elif isinstance(msg, FileData):
            self.query_engine.on_file_data(src, msg)
        else:
            self.algorithm.on_message(src, msg, hops)

    def _on_flood(self, origin: int, msg: P2pMessage, hops: int, via: int) -> None:
        if origin == self.nid:
            return
        self._count(msg.FAMILY)
        self._h_flood_hops.observe(hops)
        self.algorithm.on_discovery(origin, msg, hops)

    def _on_flood_duplicate(self, origin: int, msg: P2pMessage, via: int) -> None:
        # The radio still received (and paid for) the duplicate copy;
        # it counts as a received message even though it is not processed.
        if origin != self.nid:
            self._count(msg.FAMILY)

    def _count(self, family: str) -> None:
        if self.count_received is not None:
            self.count_received(self.nid, family)

    # ------------------------------------------------------------------
    # query-engine surface
    # ------------------------------------------------------------------
    def overlay_neighbors(self) -> list[int]:
        """Current query-plane neighbours (algorithm-defined)."""
        return self.algorithm.overlay_neighbors()

    def adhoc_distance(self, peer: int) -> int:
        """Ground-truth ad-hoc hop distance to ``peer`` (metrics only)."""
        d = self.world.topology.hop_distance(self.nid, peer)
        return d if d != UNREACHABLE else -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        alg = self.algorithm.name if self.algorithm else "-"
        return f"<Servent {self.nid} alg={alg} conns={self.connections.count}>"
