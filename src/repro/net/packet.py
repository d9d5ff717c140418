"""Link-layer frames.

A :class:`Frame` is what actually crosses the (simulated) air between
two radios that are in range of each other.  Higher layers (AODV
control, AODV-routed data, flooded discovery messages) put their own
message objects in ``payload`` and tag the frame with a ``kind`` so
receivers can dispatch without isinstance chains.

Sizes are in bytes and only matter for the energy model; they default to
a small control-message size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Frame", "BROADCAST", "DEFAULT_FRAME_BYTES"]

#: Pseudo-address for 1-hop broadcast frames.
BROADCAST = -1

#: Default frame size (bytes) used for control traffic.
DEFAULT_FRAME_BYTES = 64

_uid = itertools.count()


@dataclass(slots=True)
class Frame:
    """One link-layer transmission.

    Attributes
    ----------
    src:
        Transmitting node id.
    dst:
        Receiving node id, or :data:`BROADCAST`.
    kind:
        Dispatch tag, e.g. ``"aodv"``, ``"data"``, ``"flood"``.
    payload:
        Upper-layer message object.
    size:
        Bytes on air (energy accounting).
    uid:
        Globally unique frame id (diagnostics).
    """

    src: int
    dst: int
    kind: str
    payload: Any
    size: int = DEFAULT_FRAME_BYTES
    uid: int = field(default_factory=_uid.__next__)
