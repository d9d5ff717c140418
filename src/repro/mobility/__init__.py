"""Mobility models from the Camp et al. survey the paper cites.

Random waypoint is the paper's model; random direction and Gauss-Markov
power the §8 "effects of mobility" studies; static is the zero-mobility
baseline.
"""

from .base import Area, MobilityModel
from .direction import RandomDirection
from .gauss_markov import GaussMarkov
from .static import Static
from .waypoint import RandomWaypoint

__all__ = [
    "Area",
    "MobilityModel",
    "RandomWaypoint",
    "RandomDirection",
    "GaussMarkov",
    "Static",
]
