"""Overlay network manager: builds and wires all servents.

One :class:`OverlayNetwork` owns the p2p side of a simulation: it
creates the discovery flood plane, relayed by *every* ad-hoc node
(non-members still forward discovery broadcasts -- they are part of the
ad-hoc network), a servent with the chosen (re)configuration algorithm
on each *member*, places files by the Zipf law, and dispatches routed
p2p messages to the right servent.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..net.broadcast import FloodManager
from ..net.radio import Channel
from ..net.suppression import make_rebroadcast_policy, parse_policy_spec
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
        (``"flood" | "probabilistic[:p]" | "counter[:c]"``, see
        :mod:`repro.net.suppression`).  ``"flood"`` forwards every first
        copy at once.
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

        # One flood plane that every node relays; non-members forward but
        # don't listen.  One suppression policy (None: always forward)
        # decides every node's rebroadcasts.
        self.flood = FloodManager(
            channel,
            FLOOD_KIND,
            registry=self.registry,
            policy=make_rebroadcast_policy(
                spec,
                plane=FLOOD_KIND,
                registry=self.registry,
                sim=sim,
                rng=self.rng,
                world=world,
            ),
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
                query_rng=partial(self.rng.stream, f"p2p.node.{m}"),
                count_received=count_received,
                lifetime_log=lifetime_log,
                registry=self.registry,
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

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, indices)`` of the current overlay.

        Row ``i`` belongs to ``members[i]`` and holds the member indices
        of its neighbors, ascending; an isolated member has an empty
        row.  An overlay edge is any reference either endpoint holds:
        each servent's connections plus, under Hybrid, its master's
        slave links.  The :mod:`repro.metrics.graphfast` kernels and
        :func:`repro.theory.overlay_smallworldness` read it.  Both
        arrays are read-only, like
        :meth:`repro.net.topology.TopologyBackend.csr`.
        """
        n = len(self.members)
        index = {m: i for i, m in enumerate(self.members)}
        keys = []
        for servent in self.servents.values():
            peers = [conn.peer for conn in servent.connections]
            alg = servent.algorithm
            if isinstance(alg, HybridAlgorithm):
                peers.extend(conn.peer for conn in alg.slaves)
            i = index[servent.nid]
            for peer in peers:
                j = index[peer]
                keys.append(i * n + j)
                keys.append(j * n + i)
        rows, indices = np.divmod(np.unique(np.array(keys, dtype=np.int64)), n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return indptr, indices

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
