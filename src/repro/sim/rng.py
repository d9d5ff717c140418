"""Deterministic random-number streams.

Every stochastic subsystem (mobility, file placement, query timing,
protocol jitter, ...) draws from its own named ``numpy.random.Generator``
so that changing how one subsystem consumes randomness cannot perturb the
others -- the standard trick for reproducible parallel/HPC simulations.

Streams are derived from a single root seed with
``numpy.random.SeedSequence.spawn``-style keying: the stream name is
hashed (stable across processes, unlike ``hash()``) into the spawn key.
Repetition ``k`` of an experiment uses root seed ``base_seed + k``.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RngRegistry", "stable_key"]


def stable_key(name: str) -> int:
    """Map a stream name to a stable 63-bit integer key.

    Uses BLAKE2 so the mapping is identical across interpreter runs and
    platforms (Python's built-in ``hash`` is salted per process).
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


class RngRegistry:
    """Factory for named, independent random streams.

    Parameters
    ----------
    seed:
        Root seed.  Two registries with the same seed produce identical
        streams for identical names, regardless of creation order.

    A stream costs ~16 us to create, so consumers that may never draw
    (``suppression.<plane>.<nid>``, ``p2p.node.<nid>``) create theirs at
    the first draw, which order independence makes bit-identical.

    Examples
    --------
    >>> r1, r2 = RngRegistry(7), RngRegistry(7)
    >>> float(r1.stream("mobility").random()) == float(r2.stream("mobility").random())
    True
    >>> float(r1.stream("a").random()) == float(RngRegistry(7).stream("b").random())
    False
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same registry returns the *same* generator object for the
        same name, so consumers share position in the stream.
        """
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(stable_key(name),))
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"
