"""Routing abstraction and the oracle shortest-path router."""

from .base import Router, RreqSeenTable
from .oracle import OracleRouter

__all__ = ["Router", "OracleRouter", "RreqSeenTable"]
