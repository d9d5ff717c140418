"""Per-run provenance: what ran, with which bits, for how long.

A :class:`RunManifest` pins down everything needed to reproduce or audit
one simulation run: the full configuration and its hash, the seed, the
source revision the process ran from (best effort), interpreter and
numpy versions, wall-clock cost and the run's peak counters.  It rides
inside the versioned ``RunResult`` schema, so every archived run is
self-describing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from .registry import Registry

__all__ = ["RunManifest", "git_revision", "config_hash"]


def config_hash(config: Dict[str, Any]) -> str:
    """sha256 of the canonical (sorted-keys) JSON of a config dict."""
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def git_revision(start: Optional[str] = None) -> Optional[str]:
    """Best-effort commit hash of the repository containing ``start``.

    Reads ``.git/HEAD`` directly (no subprocess); returns ``None``
    outside a git checkout or on any read problem.
    """
    path = os.path.abspath(start if start is not None else os.getcwd())
    try:
        while True:
            head = os.path.join(path, ".git", "HEAD")
            if os.path.isfile(head):
                with open(head) as fh:
                    ref = fh.read().strip()
                if ref.startswith("ref:"):
                    ref_path = os.path.join(path, ".git", *ref[4:].strip().split("/"))
                    if os.path.isfile(ref_path):
                        with open(ref_path) as fh:
                            return fh.read().strip() or None
                    return None
                return ref or None
            parent = os.path.dirname(path)
            if parent == path:
                return None
            path = parent
    except OSError:
        return None


@dataclass
class RunManifest:
    """Provenance record of one run (see :meth:`begin` / :meth:`finish`)."""

    config: Dict[str, Any]
    config_sha256: str
    seed: int
    git_rev: Optional[str] = None
    python: str = ""
    numpy_version: str = ""
    platform_tag: str = ""
    #: wall-clock unix timestamp when the run started
    started_at: float = 0.0
    #: total wall-clock seconds (set by :meth:`finish`)
    wall_seconds: float = 0.0
    #: peak/final counter values (``Registry.aggregated``)
    peaks: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def begin(cls, config: Dict[str, Any], seed: int) -> "RunManifest":
        """Capture the environment at run start."""
        return cls(
            config=config,
            config_sha256=config_hash(config),
            seed=int(seed),
            git_rev=git_revision(),
            python=platform.python_version(),
            numpy_version=np.__version__,
            platform_tag=platform.platform(),
            started_at=time.time(),
        )

    def finish(self, registry: Optional[Registry] = None) -> "RunManifest":
        """Record the elapsed wall clock and final counter values."""
        self.wall_seconds = time.time() - self.started_at
        if registry is not None:
            self.peaks = registry.aggregated(skip_kinds=("timer",))
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "git_rev": self.git_rev,
            "python": self.python,
            "numpy_version": self.numpy_version,
            "platform": self.platform_tag,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "peaks": dict(self.peaks),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any], config: Optional[Dict[str, Any]] = None) -> "RunManifest":
        return cls(
            config=config if config is not None else {},
            config_sha256=d["config_sha256"],
            seed=int(d["seed"]),
            git_rev=d.get("git_rev"),
            python=d.get("python", ""),
            numpy_version=d.get("numpy_version", ""),
            platform_tag=d.get("platform", ""),
            started_at=float(d.get("started_at", 0.0)),
            wall_seconds=float(d.get("wall_seconds", 0.0)),
            peaks=dict(d.get("peaks", {})),
        )
