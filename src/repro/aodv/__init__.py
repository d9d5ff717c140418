"""AODV on-demand routing (draft-ietf-manet-aodv-11 subset)."""

from .messages import SEQ_UNKNOWN, DataPacket, Rerr, Rrep, Rreq
from .protocol import AodvAgent, AodvConfig, AodvRouter
from .table import RouteEntry, RouteTable

__all__ = [
    "SEQ_UNKNOWN",
    "DataPacket",
    "Rerr",
    "Rrep",
    "Rreq",
    "AodvAgent",
    "AodvConfig",
    "AodvRouter",
    "RouteEntry",
    "RouteTable",
]
