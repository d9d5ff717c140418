"""P2P overlay core: the paper's contribution plus the query plane."""

from .algorithms import (
    ALGORITHMS,
    BasicAlgorithm,
    HybridAlgorithm,
    PeerState,
    RandomAlgorithm,
    ReconfigAlgorithm,
    RegularAlgorithm,
    make_algorithm,
)
from .config import P2pConfig
from .connection import Connection, ConnectionTable
from .files import FileStore, place_files, zipf_frequencies
from .messages import (
    Capture,
    ConnectAccept,
    ConnectConfirm,
    ConnectOffer,
    Discover,
    DiscoverReply,
    P2pMessage,
    Ping,
    Pong,
    Query,
    QueryHit,
    SlaveAccept,
    SlaveConfirm,
    SlaveRequest,
)
from .overlay import FLOOD_KIND, OverlayNetwork
from .query import QueryConfig, QueryEngine, QueryRecord
from .servent import P2P_KIND, Servent

__all__ = [
    "ALGORITHMS",
    "BasicAlgorithm",
    "HybridAlgorithm",
    "PeerState",
    "RandomAlgorithm",
    "ReconfigAlgorithm",
    "RegularAlgorithm",
    "make_algorithm",
    "P2pConfig",
    "Connection",
    "ConnectionTable",
    "FileStore",
    "place_files",
    "zipf_frequencies",
    "Capture",
    "ConnectAccept",
    "ConnectConfirm",
    "ConnectOffer",
    "Discover",
    "DiscoverReply",
    "P2pMessage",
    "Ping",
    "Pong",
    "Query",
    "QueryHit",
    "SlaveAccept",
    "SlaveConfirm",
    "SlaveRequest",
    "FLOOD_KIND",
    "OverlayNetwork",
    "QueryConfig",
    "QueryEngine",
    "QueryRecord",
    "P2P_KIND",
    "Servent",
]
