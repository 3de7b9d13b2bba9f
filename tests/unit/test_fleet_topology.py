"""FleetConfig validation and execution-fabric dispatch."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    FleetConfig,
    FleetResult,
    InterNodeLink,
    RegionSpec,
    two_region_fleet,
)
from repro.pipeline.parallel import (
    config_type_spec,
    result_from_dict,
    run_config,
)


def _tiny_fleet(**overrides) -> FleetConfig:
    return two_region_fleet(
        2, publishers_per_region=1, duration=2.0, **overrides
    )


def test_two_region_fleet_validates():
    config = _tiny_fleet()
    config.validate()
    assert [r.name for r in config.regions] == ["a", "b"]
    assert config.total_publishers() == 2
    assert config.total_subscribers() == 4
    # Auto mesh: one directed link each way.
    links = config.mesh_links()
    assert {(link.src, link.dst) for link in links} == {
        ("a", "b"), ("b", "a")
    }


@pytest.mark.parametrize(
    "mutation",
    [
        {"regions": ()},
        {"duration": 0.0},
        {"feedback_interval": 0.0},
        {"flash_crowd_at": 99.0},
        {"flash_crowd_fraction": 0.0},
        {"faulted_region": "nope"},
        {"grace_period": -1.0},
        {"layers": ()},
        {"duration": float("nan")},
        {"duration": float("inf")},
        {"grace_period": float("nan")},
        {"grace_period": float("inf")},
        # A result echoes its seed; the result cache reads an integer
        # back exactly only inside the signed 64-bit range.
        {"seed": 2**63},
        {"seed": -(2**63) - 1},
    ],
)
def test_validate_rejects_bad_values(mutation):
    config = dataclasses.replace(_tiny_fleet(), **mutation)
    with pytest.raises(ConfigError):
        config.validate()


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
def test_validate_accepts_seed_inside_signed_64_bits(seed):
    dataclasses.replace(_tiny_fleet(), seed=seed).validate()


def test_validate_rejects_duplicate_regions_and_links():
    region = RegionSpec(
        name="a", publishers=1, subscribers=2, downlink_bps=2e6
    )
    with pytest.raises(ConfigError):
        FleetConfig(regions=(region, region)).validate()
    link = InterNodeLink(src="a", dst="b", capacity_bps=1e6)
    config = dataclasses.replace(_tiny_fleet(), links=(link, link))
    with pytest.raises(ConfigError):
        config.validate()
    with pytest.raises(ConfigError):
        InterNodeLink(src="a", dst="a", capacity_bps=1e6).validate()


def test_registry_dispatch_runs_fleet_and_rehydrates():
    config = _tiny_fleet()
    assert config_type_spec(config).cost(config) > 0
    result = run_config(config)
    assert isinstance(result, FleetResult)
    assert result.subscribers == 4
    rehydrated = result_from_dict(config, result.to_dict())
    assert isinstance(rehydrated, FleetResult)
    assert rehydrated.to_json() == result.to_json()


def test_fleet_result_round_trip_is_lossless():
    result = run_config(_tiny_fleet())
    clone = FleetResult.from_dict(result.to_dict())
    assert clone.to_dict() == result.to_dict()
    assert clone.region_latency_ms("a") == result.region_latency_ms("a")
    assert clone.region_latency_ms("missing") is None
