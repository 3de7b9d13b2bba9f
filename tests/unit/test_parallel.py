"""Config hashing, the result cache, result serialization, run_many."""

from __future__ import annotations

import dataclasses
import gc
import json
import multiprocessing
import pickle

import pytest

from repro.errors import ConfigError, SimulationError
from repro.experiments import robustness, scenarios
from repro.pipeline import chaosharness, parallel
from repro.pipeline.config import NetworkConfig, PolicyName, SessionConfig
from repro.pipeline.parallel import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    canonical_json,
    config_hash,
    config_to_dict,
    config_type_spec,
    configure,
    run_many,
)
from repro.pipeline.results import (
    FrameOutcome,
    SessionResult,
    TimeseriesSample,
)
from repro.pipeline.runner import run_session
from repro.traces.bandwidth import BandwidthTrace
from repro.units import mbps


def short_config(seed: int = 1, **overrides) -> SessionConfig:
    config = scenarios.step_drop_config(0.2, seed=seed)
    return dataclasses.replace(config, duration=4.0, **overrides)


def dead_link_config() -> SessionConfig:
    """2.5 Mbps falling to 0 at 5 s for good: the network queue delay
    becomes infinite, which ``json.dumps`` writes as ``Infinity``."""
    return SessionConfig(
        network=NetworkConfig(
            capacity=BandwidthTrace([(0.0, mbps(2.5)), (5.0, 0.0)])
        ),
        duration=8.0,
    )


# ----------------------------------------------------------------------
# Canonicalization and hashing
# ----------------------------------------------------------------------
class TestConfigHash:
    def test_stable_across_equal_configs(self):
        assert config_hash(short_config()) == config_hash(short_config())

    def test_copy_hashes_identically(self):
        config = short_config()
        assert config_hash(config) == config_hash(
            dataclasses.replace(config)
        )

    def test_sensitive_to_every_layer(self):
        config = short_config()
        base = config_hash(config)
        assert config_hash(short_config(seed=2)) != base
        assert config_hash(
            dataclasses.replace(config, policy=PolicyName.ADAPTIVE)
        ) != base
        deeper = dataclasses.replace(
            config,
            network=dataclasses.replace(
                config.network, queue_bytes=99_000
            ),
        )
        assert config_hash(deeper) != base

    def test_trace_breakpoints_are_hashed(self):
        config = short_config()
        scaled = dataclasses.replace(
            config,
            network=dataclasses.replace(
                config.network,
                capacity=config.network.capacity.scaled(1.5),
            ),
        )
        assert config_hash(scaled) != config_hash(config)

    def test_canonical_json_is_deterministic_and_parseable(self):
        text = canonical_json(short_config())
        assert text == canonical_json(short_config())
        payload = json.loads(text)
        assert payload["policy"] == "webrtc"
        assert "__bandwidth_trace__" in payload["network"]["capacity"]

    def test_enum_and_tuple_encoding(self):
        assert config_to_dict(PolicyName.ORACLE) == "oracle"
        assert config_to_dict((1, (2.5, "x"))) == [1, [2.5, "x"]]

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError):
            config_to_dict(object())


# ----------------------------------------------------------------------
# SessionResult serialization
# ----------------------------------------------------------------------
class TestResultSerialization:
    def test_round_trip_exact(self):
        result = run_session(
            short_config(enable_nack=True, enable_audio=True)
        )
        rebuilt = SessionResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt == result
        # Bit-identical serialized form, not just dataclass equality.
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )

    def test_round_trip_preserves_collections(self):
        result = SessionResult(
            policy="adaptive",
            seed=7,
            fps=30.0,
            frames=[
                FrameOutcome(index=0, capture_time=0.0, skipped=True),
                FrameOutcome(
                    index=1,
                    capture_time=1 / 30,
                    frame_type="P",
                    qp=31.5,
                    size_bytes=4200,
                    encoded_ssim=0.97,
                    complete_time=0.08,
                    display_time=0.09,
                ),
                FrameOutcome(
                    index=2, capture_time=2 / 30, lost=True
                ),
            ],
            timeseries=[
                TimeseriesSample(0.1, 1e6, None, 2.5e6, 0.0, 0.01, 1500),
            ],
            drop_events=[10.0, 11.25],
            pli_count=3,
            audio_latencies=[(0.02, 0.031), (0.04, 0.029)],
            audio_sent=2,
            audio_received=2,
        )
        rebuilt = SessionResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert rebuilt.audio_latencies[0] == (0.02, 0.031)
        assert isinstance(rebuilt.audio_latencies[0], tuple)
        assert rebuilt.frames[1].display_time == 0.09
        assert rebuilt.frames[0].complete_time is None

    def test_metrics_survive_round_trip(self):
        result = run_session(short_config())
        rebuilt = SessionResult.from_dict(result.to_dict())
        assert rebuilt.mean_latency() == result.mean_latency()
        assert (
            rebuilt.mean_displayed_ssim() == result.mean_displayed_ssim()
        )
        assert rebuilt.freeze_fraction() == result.freeze_fraction()

    def test_pickle_round_trip_exact(self):
        # The process pool's worker-to-parent hop pickles the dict.
        result = run_session(short_config())
        payload = pickle.loads(pickle.dumps(result.to_dict()))
        rebuilt = SessionResult.from_dict(payload)
        assert rebuilt == result
        assert json.dumps(rebuilt.to_dict()) == json.dumps(result.to_dict())

    def test_traced_impaired_session_round_trips_byte_equal(self):
        config = short_config(
            enable_nack=True,
            enable_fec=True,
            enable_playout=True,
            enable_audio=True,
            enable_telemetry=True,
            faults=robustness.fault_suite(at=1.0)["loss_storm"],
        )
        result = run_session(config)
        # The round trip only covers these layers' output if they ran.
        counters = result.traces.to_dict()["counters"]
        for name in (
            "faults.applied",
            "sender.retransmissions",
            "fec.recovered_packets",
        ):
            assert counters[name] > 0, name
        assert result.audio_latencies
        text = json.dumps(result.to_dict())
        rebuilt = SessionResult.from_dict(json.loads(text))
        assert json.dumps(rebuilt.to_dict()) == text

    def test_rows_rebuild_from_any_key_order(self):
        result = run_session(short_config())
        payload = result.to_dict()
        payload["frames"] = [
            dict(reversed(row.items())) for row in payload["frames"]
        ]
        assert SessionResult.from_dict(payload) == result

    @pytest.mark.parametrize("rows", ["frames", "timeseries"])
    def test_row_with_an_extra_key_is_rejected(self, rows):
        payload = run_session(short_config()).to_dict()
        payload[rows][0]["bogus"] = 1.0
        with pytest.raises(TypeError):
            SessionResult.from_dict(payload)

    @pytest.mark.parametrize(
        "rows, key",
        [("frames", "displayed_ssim"), ("timeseries", "acked_bps")],
    )
    def test_row_missing_a_key_is_rejected(self, rows, key):
        payload = run_session(short_config()).to_dict()
        del payload[rows][-1][key]
        with pytest.raises(TypeError):
            SessionResult.from_dict(payload)

    def test_row_with_a_renamed_key_is_rejected(self):
        payload = run_session(short_config()).to_dict()
        row = payload["frames"][-1]
        row["ssim"] = row.pop("displayed_ssim")
        with pytest.raises(KeyError, match="displayed_ssim"):
            SessionResult.from_dict(payload)


# ----------------------------------------------------------------------
# Persistent cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = short_config()
        assert cache.get(config) is None
        fresh = run_session(config)
        cache.put(config, fresh)
        hit = cache.get(config)
        assert hit == fresh

    @pytest.mark.parametrize(
        "make_config, non_finite",
        [
            pytest.param(short_config, False, id="step_drop"),
            # Not JSON: the stdlib parser reads this entry.
            pytest.param(dead_link_config, True, id="dead_link"),
        ],
    )
    def test_hit_is_bit_identical_to_fresh_run(
        self, tmp_path, make_config, non_finite
    ):
        cache = ResultCache(tmp_path)
        config = make_config()
        fresh = run_session(config)
        path = cache.put(config, fresh)
        assert (b"Infinity" in path.read_bytes()) == non_finite
        hit = cache.get(config)
        assert json.dumps(hit.to_dict(), sort_keys=True) == json.dumps(
            fresh.to_dict(), sort_keys=True
        )

    def test_put_leaves_the_collector_as_it_found_it(self, tmp_path):
        # put pauses the cyclic collector while it builds and writes the
        # entry; it must resume it, also when the result fails to encode.
        cache = ResultCache(tmp_path)
        config = short_config()
        result = run_session(config)
        assert gc.isenabled()
        cache.put(config, result)
        assert gc.isenabled()

        class Unencodable:
            def to_dict(self):
                raise ValueError("cannot encode")

        with pytest.raises(ValueError):
            cache.put(config, Unencodable())
        assert gc.isenabled()
        gc.disable()
        try:
            cache.put(config, result)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_entries_keyed_by_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = short_config(seed=1), short_config(seed=2)
        cache.put(a, run_session(a))
        assert cache.get(b) is None
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = short_config()
        cache.put(config, run_session(config))
        cache.path_for(config).write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(config) is None

    def test_corrupt_entry_is_quarantined_aside(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = short_config()
        cache.put(config, run_session(config))
        path = cache.path_for(config)
        path.write_text("truncated{", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="not valid JSON"):
            assert cache.get(config) is None
        # The bad file is moved, not left to wedge every later batch.
        assert not path.exists()
        assert (tmp_path / "corrupt" / path.name).exists()
        # And the slot is a plain (silent) miss from now on.
        assert cache.get(config) is None

    def test_wrong_shape_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = short_config()
        cache.put(config, run_session(config))
        path = cache.path_for(config)
        path.write_text(json.dumps(["not", "a", "dict"]), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="missing schema"):
            assert cache.get(config) is None
        assert (tmp_path / "corrupt" / path.name).exists()

    def test_undeserializable_payload_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = short_config()
        cache.put(config, run_session(config))
        path = cache.path_for(config)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"] = {"bogus": True}
        path.write_text(json.dumps(entry), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="undeserializable"):
            assert cache.get(config) is None
        assert (tmp_path / "corrupt" / path.name).exists()

    @pytest.mark.parametrize(
        "alter",
        [
            pytest.param(
                lambda row: row.update(bogus=0.0), id="extra_key"
            ),
            pytest.param(
                lambda row: row.pop("displayed_ssim"),
                id="missing_displayed_ssim",
            ),
        ],
    )
    def test_bad_frame_row_is_quarantined(self, tmp_path, alter):
        cache = ResultCache(tmp_path)
        config = short_config()
        cache.put(config, run_session(config))
        path = cache.path_for(config)
        entry = json.loads(path.read_text(encoding="utf-8"))
        alter(entry["result"]["frames"][0])
        path.write_text(json.dumps(entry), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="undeserializable"):
            assert cache.get(config) is None
        assert (tmp_path / "corrupt" / path.name).exists()

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = short_config()
        cache.put(config, run_session(config))
        path = cache.path_for(config)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(config) is None
        # A legitimate old-version entry is NOT corruption: it stays
        # in place (an older build may still be using this cache dir).
        assert path.exists()
        assert not (tmp_path / "corrupt" / path.name).exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = short_config()
        cache.put(config, run_session(config))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(config) is None

    def test_orphaned_temp_file_is_not_an_entry(self, tmp_path):
        # A put killed before its rename leaves its temp file behind.
        cache = ResultCache(tmp_path)
        config = short_config()
        cache.put(config, run_session(config))
        orphan = tmp_path / ".tmp-k1lled00.json"
        orphan.write_text('{"schema": 6, "res', encoding="utf-8")
        assert len(cache) == 1
        assert cache.clear() == 1
        assert not orphan.exists()
        assert len(cache) == 0

    def test_clear_leaves_foreign_files(self, tmp_path):
        # A cache dir shared with other JSON files (a shard plan, the
        # golden metrics) must lose only its entries.
        cache = ResultCache(tmp_path)
        config = short_config()
        cache.put(config, run_session(config))
        foreign = [tmp_path / "plan.json", tmp_path / "golden_metrics.json"]
        for path in foreign:
            path.write_text("{}", encoding="utf-8")
        assert cache.clear() == 1
        assert all(path.exists() for path in foreign)
        assert len(cache) == 0

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert ResultCache.default_dir() == tmp_path / "alt"


# ----------------------------------------------------------------------
# run_many and the execution context
# ----------------------------------------------------------------------
class TestRunMany:
    def test_empty_batch(self):
        assert run_many([]) == []

    def test_preserves_input_order(self):
        configs = [short_config(seed=s) for s in (3, 1, 2)]
        results = run_many(configs)
        assert [r.seed for r in results] == [3, 1, 2]

    def test_cache_used_across_batches(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = short_config()
        first = run_many([config], cache=cache)
        assert len(cache) == 1
        second = run_many([config], cache=cache)
        assert second[0] == first[0]

    def test_invalid_config_is_rejected_before_the_cache(self, tmp_path):
        # ``put`` does not validate: this is the entry an older build
        # wrote for a seed that orjson reads back as a float.
        cache = ResultCache(tmp_path)
        config = dataclasses.replace(
            scenarios.step_drop_config(0.2, seed=1), seed=2**70 + 1
        )
        result = run_session(short_config())
        cache.put(config, dataclasses.replace(result, seed=config.seed))
        assert cache.get(config) is not None
        with pytest.raises(ConfigError, match="seed"):
            run_many([config], cache=cache)

    def test_serial_failure_keeps_finished_cells_cached(
        self, tmp_path, monkeypatch
    ):
        spec = config_type_spec(short_config())

        def run(config):
            if config.seed == 3:
                raise SimulationError("third cell fails")
            return spec.run(config)

        monkeypatch.setitem(
            parallel._CONFIG_TYPES,
            SessionConfig,
            dataclasses.replace(spec, run=run),
        )
        cache = ResultCache(tmp_path)
        configs = [short_config(seed=s) for s in (1, 2, 3)]
        with pytest.raises(SimulationError):
            run_many(configs, workers=1, cache=cache)
        assert len(cache) == 2
        assert cache.get(configs[0]) is not None
        assert cache.get(configs[1]) is not None

    def test_pool_failure_reraises_and_reaps_workers(self, monkeypatch):
        configs = [short_config(seed=s) for s in (1, 2)]
        rule = {
            "action": "raise-deterministic",
            "match": config_hash(configs[1]),
            "times": -1,
        }
        monkeypatch.setenv(chaosharness.ENV_RULES, json.dumps([rule]))
        with pytest.raises(SimulationError, match="injected"):
            run_many(configs, workers=2, cache=None)
        assert multiprocessing.active_children() == []

    def test_configure_sets_defaults(self, tmp_path):
        original = configure()
        before = (original.workers, original.cache)
        try:
            cache = ResultCache(tmp_path)
            configure(workers=1, cache=cache)
            run_many([short_config()])
            assert len(cache) == 1
        finally:
            configure(workers=before[0], cache=before[1])

    def test_configure_rejects_bad_workers(self):
        with pytest.raises(ConfigError):
            configure(workers=0)
