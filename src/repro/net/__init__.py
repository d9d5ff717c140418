"""Network substrate: unit-disk radio world, frames, flooding, energy."""

from .broadcast import FloodManager, FloodMessage, SeenTable
from .energy import EnergyModel
from .packet import BROADCAST, DEFAULT_FRAME_BYTES, Frame
from .radio import Channel, NetNode
from .render import render_overlay_summary, render_world
from .suppression import (
    QUERY_POLICY_KINDS,
    REBROADCAST_KINDS,
    ContactPolicy,
    CounterPolicy,
    PolicySpec,
    ProbabilisticPolicy,
    RebroadcastPolicy,
    make_rebroadcast_policy,
    parse_policy_spec,
)
from .topology import DenseTopology, SparseGridTopology, TopologyBackend, make_topology
from .world import UNREACHABLE, World

__all__ = [
    "FloodManager",
    "FloodMessage",
    "SeenTable",
    "EnergyModel",
    "BROADCAST",
    "DEFAULT_FRAME_BYTES",
    "Frame",
    "Channel",
    "NetNode",
    "render_overlay_summary",
    "render_world",
    "QUERY_POLICY_KINDS",
    "REBROADCAST_KINDS",
    "RebroadcastPolicy",
    "ProbabilisticPolicy",
    "CounterPolicy",
    "ContactPolicy",
    "PolicySpec",
    "parse_policy_spec",
    "make_rebroadcast_policy",
    "TopologyBackend",
    "DenseTopology",
    "SparseGridTopology",
    "make_topology",
    "UNREACHABLE",
    "World",
]
