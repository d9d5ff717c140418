"""AODV on-demand routing (draft-ietf-manet-aodv-11 subset)."""

from .messages import SEQ_UNKNOWN, DataPacket, Hello, Rerr, Rrep, Rreq
from .protocol import AodvAgent, AodvConfig, AodvRouter, RreqSeenTable
from .table import RouteEntry, RouteTable

__all__ = [
    "SEQ_UNKNOWN",
    "DataPacket",
    "Hello",
    "Rerr",
    "Rrep",
    "Rreq",
    "AodvAgent",
    "AodvConfig",
    "AodvRouter",
    "RreqSeenTable",
    "RouteEntry",
    "RouteTable",
]
