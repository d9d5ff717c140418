"""ASCII rendering of the physical world and overlay.

A debugging aid in the spirit of nam (ns-2's animator), minus the GUI:
draw node positions on a character grid, optionally marking p2p members,
masters, or any labelling the caller wants, plus a link summary.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from .world import World

__all__ = ["render_world", "render_overlay_summary"]


def render_world(
    world: World,
    *,
    width: int = 60,
    height: int = 24,
    label: Optional[Callable[[int], str]] = None,
) -> str:
    """Draw the current node positions on a character grid.

    ``label(i)`` returns a single character for node ``i`` (default:
    last digit of the id; down nodes render as ``x``).  Nodes sharing a
    cell render as ``+``.
    """
    pos = world.positions()
    area_w = world.mobility.area.width
    area_h = world.mobility.area.height
    grid = [[" "] * width for _ in range(height)]
    for i in range(world.n):
        cx = int(pos[i, 0] / area_w * (width - 1))
        cy = int(pos[i, 1] / area_h * (height - 1))
        row = height - 1 - cy  # y grows upward
        ch = "x" if not world.is_up(i) else (label(i) if label else str(i % 10))
        grid[row][cx] = "+" if grid[row][cx] != " " else ch[0]
    border = "+" + "-" * width + "+"
    body = "\n".join("|" + "".join(row) + "|" for row in grid)
    stats = (
        f"{world.n} nodes, {world.topology.link_count()} radio links, "
        f"range {world.radio_range:g} m, t={world.sim.now:.1f}s"
    )
    return f"{border}\n{body}\n{border}\n{stats}"


def render_overlay_summary(overlay) -> str:
    """One line per member: connections and role (for Hybrid)."""
    from ..core.algorithms import HybridAlgorithm

    lines = []
    for nid, servent in sorted(overlay.servents.items()):
        alg = servent.algorithm
        extra = ""
        if isinstance(alg, HybridAlgorithm):
            extra = f" [{alg.state.value}"
            if alg.slaves.count:
                extra += f", {alg.slaves.count} slaves"
            extra += "]"
        peers = ",".join(str(p) for p in servent.connections.peers()) or "-"
        lines.append(f"  node {nid:3d}: -> {peers}{extra}")
    return "\n".join(lines)
