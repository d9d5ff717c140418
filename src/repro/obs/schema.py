"""The versioned run-result schema and its validator.

``RunResult.to_dict()`` emits schema version 1; everything that consumes
archived runs (``ResultStore``, the ``stats`` CLI, CI smoke checks)
validates against this module instead of trusting field names scattered
around the codebase.  The validator is hand-rolled -- the environment
carries no jsonschema dependency -- and reports the offending path in
every error message.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["RUN_SCHEMA_VERSION", "SchemaError", "validate_run_dict"]

#: Current version emitted by ``RunResult.to_dict``.
RUN_SCHEMA_VERSION = 1

#: Message families every run reports (mirrors metrics.collector.FAMILIES).
_FAMILIES = ("connect", "ping", "query", "transfer", "other")

_FILE_STAT_KEYS = {
    "file_id",
    "queries",
    "answered",
    "avg_answers",
    "avg_min_p2p_hops",
    "avg_min_adhoc_hops",
}


class SchemaError(ValueError):
    """A run dict does not conform to the schema."""


def _expect(d: Dict[str, Any], key: str, types, path: str, *, optional: bool = False):
    if key not in d:
        if optional:
            return None
        raise SchemaError(f"{path}: missing key {key!r}")
    value = d[key]
    if types is not None and not isinstance(value, types):
        raise SchemaError(f"{path}.{key}: expected {types}, got {type(value).__name__}")
    return value

def _number(value: Any, path: str, *, allow_none: bool = False) -> None:
    if value is None and allow_none:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")


def validate_run_dict(d: Dict[str, Any], *, path: str = "run") -> None:
    """Raise :class:`SchemaError` unless ``d`` is a valid v1 run dict."""
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: expected dict, got {type(d).__name__}")
    version = _expect(d, "schema_version", int, path)
    if version != RUN_SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema_version: unsupported version {version!r}")

    config = _expect(d, "config", dict, path)
    for key in ("num_nodes", "duration", "seed"):
        _number(_expect(config, key, None, f"{path}.config"), f"{path}.config.{key}")
    for key in ("algorithm", "routing", "mobility", "topology"):
        _expect(config, key, str, f"{path}.config")

    num_nodes = int(config["num_nodes"])
    for key in ("algorithm", "routing"):
        _expect(d, key, str, path)
    for key in ("num_nodes", "duration", "seed", "num_queries", "events", "energy_total"):
        _number(_expect(d, key, None, path), f"{path}.{key}")
    if int(d["num_nodes"]) != num_nodes:
        raise SchemaError(f"{path}.num_nodes: disagrees with config.num_nodes")

    members = _expect(d, "members", list, path)
    for i, m in enumerate(members):
        _number(m, f"{path}.members[{i}]")
        if not 0 <= int(m) < num_nodes:
            raise SchemaError(f"{path}.members[{i}]: node id {m} out of range [0, {num_nodes})")

    totals = _expect(d, "totals", dict, path)
    sorted_received = _expect(d, "sorted_received", dict, path)
    for fam in _FAMILIES:
        _number(_expect(totals, fam, None, f"{path}.totals"), f"{path}.totals.{fam}")
        curve = _expect(sorted_received, fam, list, f"{path}.sorted_received")
        if len(curve) != len(members):
            raise SchemaError(
                f"{path}.sorted_received.{fam}: length {len(curve)} != {len(members)} members"
            )
        for i, v in enumerate(curve):
            _number(v, f"{path}.sorted_received.{fam}[{i}]")
        if any(curve[i] < curve[i + 1] for i in range(len(curve) - 1)):
            raise SchemaError(f"{path}.sorted_received.{fam}: curve is not sorted decreasing")

    file_stats = _expect(d, "file_stats", list, path)
    for i, entry in enumerate(file_stats):
        spath = f"{path}.file_stats[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{spath}: expected dict, got {type(entry).__name__}")
        missing = _FILE_STAT_KEYS - set(entry)
        if missing:
            raise SchemaError(f"{spath}: missing keys {sorted(missing)}")
        _number(entry["file_id"], f"{spath}.file_id")
        _number(entry["queries"], f"{spath}.queries")
        _number(entry["answered"], f"{spath}.answered")
        _number(entry["avg_answers"], f"{spath}.avg_answers")
        _number(entry["avg_min_p2p_hops"], f"{spath}.avg_min_p2p_hops", allow_none=True)
        _number(entry["avg_min_adhoc_hops"], f"{spath}.avg_min_adhoc_hops", allow_none=True)

    overlay_stats = _expect(d, "overlay_stats", dict, path)
    for k, v in overlay_stats.items():
        _number(v, f"{path}.overlay_stats.{k}", allow_none=True)

    energy = _expect(d, "energy", list, path)
    if len(energy) != num_nodes:
        raise SchemaError(f"{path}.energy: length {len(energy)} != {num_nodes} nodes")
    for i, v in enumerate(energy):
        _number(v, f"{path}.energy[{i}]")

    balance = _expect(d, "balance", dict, path)
    for fam, metrics in balance.items():
        if not isinstance(metrics, dict):
            raise SchemaError(f"{path}.balance.{fam}: expected dict")
        for k, v in metrics.items():
            _number(v, f"{path}.balance.{fam}.{k}", allow_none=True)

    lifetimes = _expect(d, "connection_lifetimes", dict, path)
    for cls, metrics in lifetimes.items():
        if not isinstance(metrics, dict):
            raise SchemaError(f"{path}.connection_lifetimes.{cls}: expected dict")
        for k, v in metrics.items():
            _number(v, f"{path}.connection_lifetimes.{cls}.{k}", allow_none=True)

    obs = _expect(d, "obs", dict, path, optional=True)
    if obs is not None:
        counters = _expect(obs, "counters", dict, f"{path}.obs", optional=True)
        if counters is not None:
            for k, v in counters.items():
                _number(v, f"{path}.obs.counters.{k}")
        timeseries = _expect(obs, "timeseries", list, f"{path}.obs", optional=True)
        if timeseries is not None:
            for i, row in enumerate(timeseries):
                if not isinstance(row, dict):
                    raise SchemaError(f"{path}.obs.timeseries[{i}]: expected dict")
                _number(
                    _expect(row, "t", None, f"{path}.obs.timeseries[{i}]"),
                    f"{path}.obs.timeseries[{i}].t",
                )
        manifest = _expect(obs, "manifest", dict, f"{path}.obs", optional=True)
        if manifest is not None:
            _expect(manifest, "config_sha256", str, f"{path}.obs.manifest")
            _number(
                _expect(manifest, "seed", None, f"{path}.obs.manifest"),
                f"{path}.obs.manifest.seed",
            )
