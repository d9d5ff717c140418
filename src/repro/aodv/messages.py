"""AODV control and data message types (per draft-ietf-manet-aodv-11).

Only the fields the protocol logic needs are modelled; octet-exact wire
formats are irrelevant to the reproduction (frame ``size`` carries the
energy cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Rreq", "Rrep", "Rerr", "DataPacket", "SEQ_UNKNOWN"]

#: Destination sequence number value meaning "no idea" in an RREQ.
SEQ_UNKNOWN = -1


@dataclass(slots=True)
class Rreq:
    """Route request, flooded with an expanding-ring TTL.

    It rides the ``aodv.rreq`` flood plane: the
    :class:`~repro.net.broadcast.FloodMessage` envelope around it
    carries the flood id, the hops a copy travelled and the remaining
    TTL.
    """

    origin: int
    origin_seq: int
    dest: int
    dest_seq: int  # last known, or SEQ_UNKNOWN


@dataclass(slots=True)
class Rrep:
    """Route reply, unicast hop-by-hop back along the reverse route.

    Generated by the destination itself or by an intermediate node with
    a fresh-enough route.  ``hop_count`` is the distance from the
    replying point to ``dest`` plus the hops the RREP has travelled, so
    at the origin it equals the full path length.
    """

    origin: int  # the RREQ origin this reply travels to
    dest: int  # the destination the route leads to
    dest_seq: int
    hop_count: int
    lifetime: float


@dataclass(slots=True)
class Rerr:
    """Route error: ``dest`` became unreachable via the RERR's sender."""

    dest: int
    dest_seq: int


@dataclass(slots=True)
class DataPacket:
    """An upper-layer payload riding the AODV data plane.

    ``kind_upper`` is the upper-layer dispatch tag (e.g. ``"p2p"``);
    ``hops`` counts the hops actually travelled.
    """

    src: int
    dst: int
    kind_upper: str
    payload: Any
    size: int
    hops: int = 0
