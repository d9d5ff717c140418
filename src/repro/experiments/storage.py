"""Result storage: an append-only ndjson archive of runs.

Long evaluations (33-rep sweeps) should survive the Python process.
:class:`ResultStore` appends tagged records -- one JSON object per line,
so files are greppable, diffable and stream-loadable -- and supports
filtered loading.  RunResults serialize through
:meth:`RunResult.to_dict`.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..obs.registry import Registry
from ..obs.schema import SchemaError, validate_run_dict
from ..scenarios.runner import RunResult

__all__ = ["ResultStore"]


class ResultStore:
    """Append-only archive of experiment records.

    Parameters
    ----------
    path:
        The ndjson file (created on first append; parent directory must
        exist).
    registry:
        Metrics registry for the ``storage.corrupt_lines`` counter
        (default: a private one).
    """

    def __init__(self, path: str, *, registry: Optional[Registry] = None) -> None:
        self.path = str(path)
        self._registry = registry if registry is not None else Registry()
        self._corrupt_lines = self._registry.counter("storage.corrupt_lines")
        #: open append handle while inside :meth:`batch`, else None
        self._batch_fh = None

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, kind: str, payload: Dict[str, Any], **tags: Any) -> Dict[str, Any]:
        """Append one record; returns it (with envelope fields added).

        The envelope carries ``kind``, ``tags`` and a wall-clock
        ``recorded_at`` so archives from different sessions interleave
        safely.
        """
        record = {
            "kind": kind,
            "tags": {str(k): v for k, v in tags.items()},
            "recorded_at": time.time(),
            "payload": payload,
        }
        line = json.dumps(record)
        if self._batch_fh is not None:
            self._batch_fh.write(line + "\n")
        else:
            with open(self.path, "a") as fh:
                fh.write(line + "\n")
        return record

    @contextmanager
    def batch(self) -> Iterator["ResultStore"]:
        """Open-once append context: every :meth:`append` inside shares
        one file handle (flushed on exit) instead of reopening the file
        per record.  This is the executor's write-back path; reentrant
        (a nested batch reuses the outer handle).
        """
        if self._batch_fh is not None:
            yield self
            return
        with open(self.path, "a") as fh:
            self._batch_fh = fh
            try:
                yield self
            finally:
                self._batch_fh = None
                fh.flush()

    def append_run(self, result: RunResult, **tags: Any) -> Dict[str, Any]:
        """Archive a scenario run (validated against the run schema)."""
        payload = result.to_dict()
        validate_run_dict(payload)
        return self.append("run", payload, **tags)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def records(
        self,
        *,
        kind: Optional[str] = None,
        where: Optional[Callable[[Dict[str, Any]], bool]] = None,
        **tag_filters: Any,
    ) -> Iterator[Dict[str, Any]]:
        """Yield records matching the filters (missing file = empty).

        A line that fails to parse -- typically the final line of a
        store whose writer was killed mid-append -- is skipped and
        counted on ``storage.corrupt_lines`` instead of poisoning every
        subsequent load of the archive.
        """
        if not os.path.exists(self.path):
            return
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self._corrupt_lines.inc()
                    continue
                if not isinstance(record, dict):
                    self._corrupt_lines.inc()
                    continue
                if kind is not None and record.get("kind") != kind:
                    continue
                tags = record.get("tags", {})
                if any(tags.get(k) != v for k, v in tag_filters.items()):
                    continue
                if where is not None and not where(record):
                    continue
                yield record

    def load(self, **kwargs) -> List[Dict[str, Any]]:
        """Materialized :meth:`records`."""
        return list(self.records(**kwargs))

    def load_runs(self, **kwargs) -> List[RunResult]:
        """Archived runs rehydrated as :class:`RunResult` objects.

        A schema-valid run whose config this build cannot construct (a
        key or lane value written by another revision) is skipped and
        counted on ``storage.corrupt_lines``; a payload that fails the
        schema itself still raises :class:`~repro.obs.schema.SchemaError`.
        """
        runs = []
        for r in self.records(kind="run", **kwargs):
            try:
                runs.append(RunResult.from_dict(r["payload"]))
            except SchemaError:
                raise
            except ValueError:
                self._corrupt_lines.inc()
        return runs

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

