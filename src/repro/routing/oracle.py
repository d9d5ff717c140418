"""Oracle (idealized) routing: instantaneous global shortest paths.

The zero-overhead limit of any reactive MANET routing protocol: if a
multi-hop path exists *right now*, the payload is delivered after
``hops * per_hop_latency`` seconds with no control traffic; otherwise
``on_fail`` fires immediately.  AODV in steady state converges to these
shortest paths, so benchmarks that only care about overlay-level message
counts can swap this in for large sweeps (see the ``abl_routing``
ablation for the comparison).

Energy accounting: data frames still cost energy along the path -- the
sender is charged one tx and the destination one rx per hop-equivalent,
apportioned to the endpoints (intermediate relays are not identified,
which is the price of the idealization; the ablation quantifies it).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..net.topology import UNREACHABLE
from ..net.world import World
from ..sim.kernel import Simulator
from .base import Router

__all__ = ["OracleRouter"]


class OracleRouter(Router):
    """Shortest-path delivery on the instantaneous connectivity graph.

    Parameters
    ----------
    sim, world:
        Kernel and physical world.
    per_hop_latency:
        Delivery delay per hop in seconds.
    """

    PROTOCOL = "oracle"
    #: ``send_failures``: sends with no path or an endpoint down
    COUNTERS = ("send_failures",)

    def __init__(self, sim: Simulator, world: World, *, per_hop_latency: float = 0.002) -> None:
        super().__init__(world.registry)
        self.sim = sim
        self.world = world
        self.per_hop_latency = float(per_hop_latency)
        self._c_failures = self.counters["send_failures"]

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        *,
        kind: str = "data",
        size: int = 64,
        on_fail: Optional[Callable[[Any], None]] = None,
    ) -> None:
        # not redundant: the query it skips would refresh a stale snapshot early
        up = self.world.is_up(src) and self.world.is_up(dst)
        hops = self.world.topology.hop_distance(src, dst) if up else UNREACHABLE
        if hops == UNREACHABLE:
            self._c_failures.value += 1
            if on_fail is not None:
                on_fail(payload)
            return
        if hops == 0:  # loopback
            self.sim.schedule(0.0, self._deliver_up, kind, dst, src, payload, 0)
            return
        self.world.energy.charge_tx(src, size)
        self.sim.schedule(
            hops * self.per_hop_latency, self._finish, kind, dst, src, payload, hops, size
        )

    def _finish(self, kind: str, dst: int, src: int, payload: Any, hops: int, size: int) -> None:
        if not self.world.is_up(dst):
            return
        self.world.energy.charge_rx(dst, size)
        self._deliver_up(kind, dst, src, payload, hops)

    def route_hops(self, src: int, dst: int) -> int:
        hops = self.world.topology.hop_distance(src, dst)
        return Router.UNKNOWN if hops == UNREACHABLE else hops
