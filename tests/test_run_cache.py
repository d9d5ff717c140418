"""Tests for the content-addressed run cache."""

import json
import os
import shutil

import pytest

from repro.experiments import ResultStore, RunCache, run_key
from repro.obs.registry import Registry
from repro.obs.schema import RUN_SCHEMA_VERSION
from repro.scenarios import ScenarioConfig, run_scenario

CFG = ScenarioConfig(num_nodes=12, duration=60.0, seed=4)


@pytest.fixture(scope="module")
def cfg_result():
    """``run_scenario(CFG)``, run once for every TestRunCache test."""
    return run_scenario(CFG)


class TestRunKey:
    def test_format(self):
        key = run_key(CFG)
        version, sha, seed = key.split(":")
        assert version == f"v{RUN_SCHEMA_VERSION}"
        assert len(sha) == 64
        assert seed == "4"

    def test_deterministic(self):
        assert run_key(CFG) == run_key(ScenarioConfig(num_nodes=12, duration=60.0, seed=4))

    @pytest.mark.parametrize(
        "change",
        [
            {"num_nodes": 13},
            {"duration": 61.0},
            {"seed": 5},
            {"algorithm": "hybrid"},
            {"routing": "dsdv"},
            {"rebroadcast": "counter:2"},
            {"rebroadcast": "probabilistic:0.7"},
            {"mobility": "direction"},
            {"mac": "csma"},
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert run_key(CFG.with_(**change)) != run_key(CFG)

    def test_schema_version_changes_key(self):
        assert run_key(CFG, schema_version=RUN_SCHEMA_VERSION + 1) != run_key(CFG)


#: One archive line written at 531fb1e, when ``ScenarioConfig`` still had
#: a ``queue`` field (``"queue": "calendar"`` in its config, and in the
#: hash behind its cache key), the five execution-lane fields removed
#: with the single topology refresh path, and the analytics mode.  Its
#: ``"topology": "dense"`` is a value the field no longer accepts.
OLD_ARCHIVE = os.path.join(os.path.dirname(__file__), "data", "run_with_queue_field.ndjson")
OLD_KEY = "v1:4292a28764dc36c62834be760551cbaf39c83ff1ffc1781e6fbd333d33b0e42a:4"
OLD_CFG = ScenarioConfig(
    num_nodes=2, duration=1.0, seed=4, queries=False, routing="oracle", num_files=1
)


#: Config keys of that line that ``ScenarioConfig`` no longer has.
REMOVED_KEYS = (
    "analytics_exec",
    "analytics_mode",
    "analytics_processes",
    "batched_delivery",
    "query_policy",
    "queue",
    "topology_delta",
    "topology_refresh",
)


class TestArchiveWithRemovedQueueField:
    """An archive from before the queue knob, the execution-lane fields,
    the analytics mode and the topology backend names were removed stays
    a counted outcome for both readers, never a crash -- and needs no
    run-schema bump to get there."""

    def _copy(self, tmp_path):
        return shutil.copy(OLD_ARCHIVE, str(tmp_path / "runs.ndjson"))

    def test_run_key_does_not_depend_on_a_queue_field(self):
        assert not [f for f in ScenarioConfig.__dataclass_fields__ if "queue" in f]
        assert "queue" not in ScenarioConfig().to_dict()
        assert run_key(OLD_CFG) != OLD_KEY

    def test_cache_get_is_a_miss(self, tmp_path, monkeypatch):
        cache = RunCache(self._copy(tmp_path), registry=Registry())
        assert len(cache) == 1  # the old line is indexed, under its old key
        assert cache.get(OLD_CFG) is None
        # Even looked up under its own key the payload does not rehydrate.
        monkeypatch.setattr(cache, "key_for", lambda config: OLD_KEY)
        assert cache.get(OLD_CFG) is None
        assert (cache.hits.value, cache.misses.value) == (0, 2)

    def test_load_runs_counts_a_corrupt_line(self, tmp_path):
        registry = Registry()
        store = ResultStore(self._copy(tmp_path), registry=registry)
        assert store.load_runs() == []
        assert registry.counter("storage.corrupt_lines").value == 1

    def test_from_dict_names_every_removed_key(self):
        with open(OLD_ARCHIVE) as fh:
            config = json.loads(fh.readline())["payload"]["config"]
        assert set(REMOVED_KEYS) <= set(config)
        assert not set(REMOVED_KEYS) & set(ScenarioConfig.__dataclass_fields__)
        with pytest.raises(ValueError) as err:
            ScenarioConfig.from_dict(config)
        assert str(err.value) == (
            "unknown ScenarioConfig keys: " + ", ".join(REMOVED_KEYS)
        )
        # Without them, the retired backend name is the one value left
        # to reject, and the message says there is one backend ...
        for key in REMOVED_KEYS:
            del config[key]
        with pytest.raises(
            ValueError, match="topology 'dense' cannot be selected: one topology backend"
        ):
            ScenarioConfig.from_dict(config)
        # ... and the rest of the line is a valid current config.
        assert ScenarioConfig.from_dict({**config, "topology": "auto"}) == OLD_CFG
        assert OLD_KEY.startswith(f"v{RUN_SCHEMA_VERSION}:")

    def test_retired_topology_value_alone_is_one_miss_and_one_corrupt_line(
        self, tmp_path, monkeypatch
    ):
        with open(OLD_ARCHIVE) as fh:
            record = json.loads(fh.readline())
        for key in REMOVED_KEYS:
            del record["payload"]["config"][key]
        path = tmp_path / "runs.ndjson"
        path.write_text(json.dumps(record) + "\n")
        registry = Registry()
        cache = RunCache(str(path), registry=registry)
        monkeypatch.setattr(cache, "key_for", lambda config: OLD_KEY)
        assert cache.get(OLD_CFG) is None and cache.misses.value == 1
        assert ResultStore(str(path), registry=registry).load_runs() == []
        assert registry.counter("storage.corrupt_lines").value == 1


#: One archive line written at 41da6e7 by a run with
#: ``rebroadcast="contact"`` -- a lane that only filled a vicinity table
#: nothing read, and that ``parse_policy_spec`` no longer accepts.  Its
#: config also carries the retired ``query_policy`` field.
CONTACT_ARCHIVE = os.path.join(
    os.path.dirname(__file__), "data", "run_with_contact_rebroadcast.ndjson"
)
CONTACT_KEY = "v1:e9b4aa3abe5534c695304e0b6810787b74486ea942a9d3a1abfe5feff7c68151:4"


class TestArchiveWithRetiredContactLane:
    """A run archived on the retired ``rebroadcast="contact"`` lane is
    one cache miss and one corrupt line, never a crash, and needs no
    run-schema bump."""

    def _copy(self, tmp_path):
        return shutil.copy(CONTACT_ARCHIVE, str(tmp_path / "runs.ndjson"))

    def test_cache_get_is_one_miss(self, tmp_path, monkeypatch):
        cache = RunCache(self._copy(tmp_path), registry=Registry())
        assert len(cache) == 1  # indexed under its old key
        monkeypatch.setattr(cache, "key_for", lambda config: CONTACT_KEY)
        assert cache.get(OLD_CFG) is None
        assert (cache.hits.value, cache.misses.value) == (0, 1)

    def test_load_runs_counts_a_corrupt_line(self, tmp_path):
        registry = Registry()
        store = ResultStore(self._copy(tmp_path), registry=registry)
        assert store.load_runs() == []
        assert registry.counter("storage.corrupt_lines").value == 1

    def test_from_dict_names_the_spec(self):
        with open(CONTACT_ARCHIVE) as fh:
            config = json.loads(fh.readline())["payload"]["config"]
        assert config["rebroadcast"] == "contact"
        with pytest.raises(ValueError, match="^unknown ScenarioConfig keys: query_policy$"):
            ScenarioConfig.from_dict(config)
        del config["query_policy"]
        with pytest.raises(ValueError, match="unknown rebroadcast policy 'contact'"):
            ScenarioConfig.from_dict(config)
        # The rest of the line is a valid current config.
        assert ScenarioConfig.from_dict({**config, "rebroadcast": "flood"}) == OLD_CFG
        assert CONTACT_KEY.startswith(f"v{RUN_SCHEMA_VERSION}:")


class TestRunCache:
    def _cache(self, tmp_path, **kw):
        return RunCache(str(tmp_path / "runs.ndjson"), registry=Registry(), **kw)

    def test_miss_then_hit(self, tmp_path, cfg_result):
        cache = self._cache(tmp_path)
        assert cache.get(CFG) is None
        assert cache.misses.value == 1
        cache.put(CFG, cfg_result)
        got = cache.get(CFG)
        assert got is not None
        assert cache.hits.value == 1
        assert got.totals == cfg_result.totals
        assert got.events == cfg_result.events

    def test_hit_survives_process_restart(self, tmp_path, cfg_result):
        cache = self._cache(tmp_path)
        cache.put(CFG, cfg_result)
        # a fresh instance over the same archive = a new process
        warm = self._cache(tmp_path)
        assert CFG in warm
        assert warm.get(CFG) is not None
        assert warm.hits.value == 1

    def test_config_change_misses(self, tmp_path, cfg_result):
        cache = self._cache(tmp_path)
        cache.put(CFG, cfg_result)
        assert cache.get(CFG.with_(rebroadcast="counter:2")) is None
        assert cache.get(CFG.with_(seed=5)) is None

    def test_schema_bump_invalidates(self, tmp_path, cfg_result):
        cache = self._cache(tmp_path)
        cache.put(CFG, cfg_result)
        bumped = RunCache(
            cache.store.path,
            registry=Registry(),
            schema_version=RUN_SCHEMA_VERSION + 1,
        )
        assert bumped.get(CFG) is None

    def test_put_idempotent(self, tmp_path, cfg_result):
        cache = self._cache(tmp_path)
        cache.put(CFG, cfg_result)
        cache.put(CFG, cfg_result)
        assert len(cache) == 1
        assert len(cache.store.load(kind="run")) == 1

    def test_accepts_store_instance(self, tmp_path, cfg_result):
        store = ResultStore(str(tmp_path / "s.ndjson"), registry=Registry())
        cache = RunCache(store, registry=Registry())
        cache.put(CFG, cfg_result)
        assert cache.store is store

    def test_resume_after_kill(self, tmp_path, cfg_result):
        # A writer killed mid-append leaves a truncated final line; the
        # completed entries before it must still be served.
        registry = Registry()
        cache = RunCache(str(tmp_path / "runs.ndjson"), registry=registry)
        other = CFG.with_(seed=5)
        cache.put(CFG, cfg_result)
        cache.put(other, run_scenario(other))
        raw = open(cache.store.path).read().rstrip("\n")
        with open(cache.store.path, "w") as fh:
            fh.write(raw[: len(raw) - len(raw.splitlines()[-1]) // 2])
        resumed = RunCache(cache.store.path, registry=registry)
        assert resumed.get(CFG) is not None
        assert resumed.get(other) is None
        assert registry.counter("storage.corrupt_lines").value == 1

    @pytest.mark.parametrize("nested", [None, "p2p", "query"])
    def test_unknown_config_key_is_a_counted_miss(
        self, tmp_path, nested, cfg_result
    ):
        cache = self._cache(tmp_path)
        payload = cfg_result.to_dict()
        config = payload["config"] if nested is None else payload["config"][nested]
        config["future_field"] = 1  # written by a newer build
        cache.store.append("run", payload, cache_key=cache.key_for(CFG))
        assert cache.get(CFG) is None
        assert (cache.hits.value, cache.misses.value) == (0, 1)

    def test_refresh_rereads(self, tmp_path, cfg_result):
        cache = self._cache(tmp_path)
        assert len(cache) == 0
        # another writer appends behind our back
        writer = RunCache(cache.store.path, registry=Registry())
        writer.put(CFG, cfg_result)
        assert len(cache) == 0  # stale index
        cache.refresh()
        assert len(cache) == 1
