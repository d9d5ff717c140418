"""Content-addressed memoization of complete scenario runs.

The paper's evaluation requests the *same* simulation many times: every
figure is (algorithm x repetition) over one scenario, figures 5/7/9/11
share their underlying runs outright (they harvest different series
from identical configs), and the suppression-ablation ladder re-asks
for the flood reference at every rung.  A :class:`RunCache` makes any
run requested twice anywhere in the evaluation an O(1) ndjson lookup:
it memoizes complete :class:`~repro.scenarios.runner.RunResult`\\ s
through a :class:`~repro.experiments.storage.ResultStore`, keyed on a
content address of

* the canonical :class:`~repro.scenarios.config.ScenarioConfig` codec
  sha256 (the same hash :class:`~repro.obs.manifest.RunManifest`
  computes),
* the seed (already inside the hash; kept explicit so archive tags are
  greppable), and
* the run-schema version -- a schema bump invalidates every old entry
  without touching the archive.

Because the key covers *every* config field, a change to any knob --
node count, policy spec, snapshot interval -- is a miss by
construction; a warm re-``reproduce`` is nearly free; and an
interrupted ablation resumes where it died (the store tolerates a
truncated final line).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..obs.manifest import config_hash
from ..obs.registry import Registry
from ..obs.schema import RUN_SCHEMA_VERSION, SchemaError
from ..scenarios.config import ScenarioConfig
from ..scenarios.runner import RunResult
from .storage import ResultStore

__all__ = ["RunCache", "run_key"]

#: Tag name carrying the content address in archived records.
CACHE_KEY_TAG = "cache_key"


def run_key(
    config: ScenarioConfig, *, schema_version: int = RUN_SCHEMA_VERSION
) -> str:
    """The content address of one run: ``v<schema>:<config sha256>:<seed>``.

    The sha256 is over the canonical (sorted-keys) JSON codec of the
    *complete* config -- the hash ``RunManifest`` already records -- so
    two configs collide iff every field (seed and nested policy specs
    included) is equal, and archived manifests can be joined back to
    cache entries by hash.
    """
    d = config.to_dict()
    return f"v{int(schema_version)}:{config_hash(d)}:{int(d['seed'])}"


class RunCache:
    """Memoize complete ``RunResult``\\ s in a :class:`ResultStore`.

    Parameters
    ----------
    store:
        A :class:`ResultStore` or a path to one (``.ndjson``); the
        index over its ``run`` records is built once, lazily, on first
        lookup and kept in memory (latest entry per key wins).
    registry:
        Metrics registry for the ``experiments.cache_hits`` /
        ``experiments.cache_misses`` counters (default: a private one,
        which a store created from a path shares).
    schema_version:
        Run-schema version baked into every key (tests bump it to
        prove version invalidation; production leaves the default).
    """

    def __init__(
        self,
        store: Union[ResultStore, str],
        *,
        registry: Optional[Registry] = None,
        schema_version: int = RUN_SCHEMA_VERSION,
    ) -> None:
        self._registry = registry if registry is not None else Registry()
        if not isinstance(store, ResultStore):
            store = ResultStore(str(store), registry=self._registry)
        self.store = store
        self.schema_version = int(schema_version)
        self.hits = self._registry.counter("experiments.cache_hits")
        self.misses = self._registry.counter("experiments.cache_misses")
        #: key -> archived run payload (schema dict); None until loaded
        self._index: Optional[Dict[str, Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    def key_for(self, config: ScenarioConfig) -> str:
        """The content address this cache uses for ``config``."""
        return run_key(config, schema_version=self.schema_version)

    def _load_index(self) -> Dict[str, Dict[str, Any]]:
        if self._index is None:
            index: Dict[str, Dict[str, Any]] = {}
            for record in self.store.records(kind="run"):
                key = record.get("tags", {}).get(CACHE_KEY_TAG)
                if isinstance(key, str):
                    index[key] = record["payload"]
            self._index = index
        return self._index

    def __len__(self) -> int:
        return len(self._load_index())

    def __contains__(self, config: ScenarioConfig) -> bool:
        return self.key_for(config) in self._load_index()

    # ------------------------------------------------------------------
    def get(self, config: ScenarioConfig) -> Optional[RunResult]:
        """The memoized run for ``config``, or None (counted either way)."""
        payload = self._load_index().get(self.key_for(config))
        if payload is None:
            self.misses.inc()
            return None
        try:
            result = RunResult.from_dict(payload)
        except (SchemaError, KeyError, TypeError, ValueError):
            # An archived payload that no longer rehydrates (foreign
            # schema, hand-edited store) is a miss, not a crash.
            self.misses.inc()
            return None
        self.hits.inc()
        return result

    def put(self, config: ScenarioConfig, result: RunResult) -> str:
        """Memoize ``result`` under ``config``'s content address.

        Idempotent: a key already indexed is not re-appended, so warm
        evaluations never bloat the archive.  Returns the key.
        """
        key = self.key_for(config)
        index = self._load_index()
        if key not in index:
            record = self.store.append_run(result, **{CACHE_KEY_TAG: key})
            index[key] = record["payload"]
        return key
