"""Versioned RunResult schema: round-trips, validation, storage."""

import json
import math

import numpy as np
import pytest

from repro.core.config import P2pConfig
from repro.core.query import QueryConfig
from repro.experiments import ResultStore
from repro.obs import RUN_SCHEMA_VERSION, RunManifest, SchemaError, validate_run_dict
from repro.obs.manifest import config_hash
from repro.scenarios import ScenarioConfig, run_scenario
from repro.scenarios.runner import RunResult


@pytest.fixture(scope="module")
def small_result():
    return run_scenario(
        ScenarioConfig(num_nodes=12, duration=90.0, seed=4, obs_interval=15.0)
    )


class TestRoundTrip:
    def test_dict_is_json_safe_and_valid(self, small_result):
        d = small_result.to_dict()
        assert d["schema_version"] == RUN_SCHEMA_VERSION
        json.dumps(d)  # raises on anything non-plain
        validate_run_dict(d)

    def test_arrays_round_trip(self, small_result):
        d = small_result.to_dict()
        back = RunResult.from_dict(d)
        assert isinstance(back.energy, np.ndarray)
        np.testing.assert_array_equal(back.energy, small_result.energy)
        for fam, curve in small_result.sorted_received.items():
            np.testing.assert_array_equal(back.sorted_received[fam], curve)
        assert back.totals == small_result.totals
        assert back.members == small_result.members
        assert back.config == small_result.config

    def test_nan_and_inf_round_trip(self, small_result):
        d = small_result.to_dict()
        # default energy capacity is inf -> encoded as a string
        assert d["config"]["energy_capacity"] == "Infinity"
        back = RunResult.from_dict(d)
        assert back.config.energy_capacity == float("inf")
        for s_in, s_out in zip(small_result.file_stats, back.file_stats):
            if math.isnan(s_in.avg_min_p2p_hops):
                assert math.isnan(s_out.avg_min_p2p_hops)
            else:
                assert s_out.avg_min_p2p_hops == s_in.avg_min_p2p_hops

    def test_obs_sections_round_trip(self, small_result):
        back = RunResult.from_dict(small_result.to_dict())
        assert back.counters == small_result.counters
        assert back.timeseries == small_result.timeseries
        assert back.manifest is not None
        assert back.manifest.config_sha256 == small_result.manifest.config_sha256
        assert back.wall.keys() == small_result.wall.keys()

    def test_second_serialization_identical(self, small_result):
        a = json.dumps(small_result.to_dict(), sort_keys=True)
        b = json.dumps(small_result.to_dict(), sort_keys=True)
        assert a == b


class TestValidator:
    def test_rejects_bad_version(self, small_result):
        d = small_result.to_dict()
        d["schema_version"] = 99
        with pytest.raises(SchemaError, match="schema_version"):
            validate_run_dict(d)

    def test_rejects_missing_family(self, small_result):
        d = small_result.to_dict()
        del d["totals"]["ping"]
        with pytest.raises(SchemaError, match="totals"):
            validate_run_dict(d)

    def test_rejects_member_out_of_range(self, small_result):
        d = small_result.to_dict()
        d["members"][0] = 999
        with pytest.raises(SchemaError, match="members"):
            validate_run_dict(d)

    def test_rejects_unsorted_curve(self, small_result):
        d = small_result.to_dict()
        curve = d["sorted_received"]["connect"]
        if len(curve) >= 2:
            curve[0], curve[-1] = 0, curve[0] + 1
            with pytest.raises(SchemaError, match="sorted decreasing"):
                validate_run_dict(d)

    def test_rejects_energy_length_mismatch(self, small_result):
        d = small_result.to_dict()
        d["energy"] = d["energy"][:-1]
        with pytest.raises(SchemaError, match="energy"):
            validate_run_dict(d)

    def test_rejects_non_dict(self):
        with pytest.raises(SchemaError):
            validate_run_dict([])


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = ScenarioConfig(num_nodes=30, algorithm="hybrid", obs_interval=2.0)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        d = ScenarioConfig().to_dict()
        d["future_field"] = 1
        d["another"] = 2
        with pytest.raises(ValueError, match="ScenarioConfig keys: another, future_field"):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize("nested, cls", [("p2p", "P2pConfig"), ("query", "QueryConfig")])
    def test_unknown_nested_keys_rejected(self, nested, cls):
        d = ScenarioConfig().to_dict()
        d[nested]["future_field"] = 1
        with pytest.raises(ValueError, match=f"{cls} keys: future_field"):
            ScenarioConfig.from_dict(d)

    def test_every_field_round_trips(self):
        # One non-default value per field; a field added without an entry
        # here fails the first assert, so the round trip stays complete.
        # ``topology`` has no non-default value ("auto" is the only one).
        changed = dict(
            num_nodes=31, area_width=120.0, area_height=80.0, radio_range=12.5,
            p2p_fraction=0.5, algorithm="hybrid", routing="dsr", mac="lossy",
            mobility="direction", max_speed=2.0, max_pause=30.0, num_files=7,
            max_freq=0.25, duration=45.0, seed=9, energy_capacity=3.5,
            snapshot_interval=0.5, queries=False,
            obs_interval=2.0,
            rebroadcast="counter:2",
            p2p=P2pConfig(max_connections=5), query=QueryConfig(ttl=3),
        )
        default = ScenarioConfig()
        assert set(changed) | {"topology"} == set(ScenarioConfig.__dataclass_fields__)
        cfg = ScenarioConfig(**changed)
        for name, value in changed.items():
            assert getattr(cfg, name) == value != getattr(default, name), name
        assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        # the default carries the one non-JSON float (inf capacity)
        assert ScenarioConfig.from_dict(json.loads(json.dumps(default.to_dict()))) == default

    def test_rejects_negative_obs_interval(self):
        with pytest.raises(ValueError):
            ScenarioConfig(obs_interval=-1.0)


class TestManifest:
    def test_begin_finish(self):
        m = RunManifest.begin({"num_nodes": 5}, seed=3)
        assert m.config_sha256 == config_hash({"num_nodes": 5})
        assert m.python and m.numpy_version
        m.finish()
        assert m.wall_seconds >= 0.0
        assert "peaks" not in m.to_dict()
        back = RunManifest.from_dict(m.to_dict())
        assert back.config_sha256 == m.config_sha256 and back.seed == 3
        assert back.wall_seconds == m.wall_seconds

    def test_old_archive_peaks_ignored(self):
        m = RunManifest.begin({"num_nodes": 5}, seed=3).finish()
        old = dict(m.to_dict(), peaks={"c": 2.0})
        assert RunManifest.from_dict(old) == RunManifest.from_dict(m.to_dict())


class TestStorage:
    def test_store_round_trip(self, tmp_path, small_result):
        store = ResultStore(str(tmp_path / "runs.ndjson"))
        store.append_run(small_result, purpose="test")
        runs = store.load_runs()
        assert len(runs) == 1
        np.testing.assert_array_equal(runs[0].energy, small_result.energy)
        assert runs[0].manifest is not None

    def test_store_rejects_invalid_payloads_on_load(self, tmp_path):
        store = ResultStore(str(tmp_path / "runs.ndjson"))
        store.append("run", {"schema_version": 1})  # malformed by hand
        with pytest.raises(SchemaError):
            store.load_runs()

    def test_store_counts_runs_with_unknown_config_keys(self, tmp_path, small_result):
        from repro.obs import Registry

        registry = Registry()
        store = ResultStore(str(tmp_path / "runs.ndjson"), registry=registry)
        store.append_run(small_result)
        for where in (lambda cfg: cfg, lambda cfg: cfg["p2p"], lambda cfg: cfg["query"]):
            foreign = small_result.to_dict()
            where(foreign["config"])["future_field"] = 1  # written by a newer build
            store.append("run", foreign)
        runs = store.load_runs()
        assert [r.config for r in runs] == [small_result.config]
        assert registry.value("storage.corrupt_lines") == 3
