"""Routing abstraction and the oracle shortest-path router."""

from .base import Router
from .oracle import OracleRouter

__all__ = ["Router", "OracleRouter"]
