"""Small-world theory (§8 future work): lattices, predictions, studies."""

from .lattice import watts_strogatz
from .predictions import (
    lattice_clustering,
    lattice_pathlength,
    nmw_pathlength,
    random_clustering,
    random_pathlength,
    smallworld_sigma,
)
from .study import SweepPoint, overlay_smallworldness, rewiring_sweep

__all__ = [
    "watts_strogatz",
    "lattice_clustering",
    "lattice_pathlength",
    "nmw_pathlength",
    "random_clustering",
    "random_pathlength",
    "smallworld_sigma",
    "SweepPoint",
    "overlay_smallworldness",
    "rewiring_sweep",
]
