"""JSON-safe plain values for run results and archives."""

from __future__ import annotations

from typing import Any

__all__ = ["to_plain"]


def to_plain(value: Any) -> Any:
    """Recursively convert numpy containers/scalars to JSON-safe built-ins.

    NaN and +-inf become ``None`` (JSON has neither); numpy arrays become
    lists.  Imported lazily so :mod:`repro.obs` itself stays numpy-free
    on the hot path.
    """
    import numpy as np

    if isinstance(value, np.ndarray):
        return [to_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not (value == value and abs(value) != float("inf")):
        return None
    if isinstance(value, dict):
        return {str(k): to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    return value
