"""Wire serde for specs, run events and pool telemetry.

The experiment service ships all three over HTTP, so each must round-trip
through plain JSON-safe dicts without loss: a spec must rebuild to the
*same content address* (digest equality is the bar, not just field
equality), and unknown fields must fail loudly rather than be silently
dropped — a silently-tolerant decoder would mask protocol skew between a
newer client and an older server.
"""

import json

import pytest

from repro.buffers.victim_buffer import VictimBufferConfig
from repro.buffers.write_buffer import WriteBufferConfig
from repro.buffers.write_cache import WriteCacheConfig
from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.exec.keys import ExperimentSpec
from repro.exec.pool import PoolTelemetry, RunEvent
from repro.hierarchy.system import HierarchyConfig, LevelConfig

SPECS = [
    ExperimentSpec(
        "cache",
        "ccom",
        0.05,
        7,
        CacheConfig(
            size=4096,
            line_size=32,
            associativity=2,
            write_hit=WriteHitPolicy.WRITE_THROUGH,
            write_miss=WriteMissPolicy.WRITE_VALIDATE,
            subblock_fetch=True,
            replacement="fifo",
        ),
    ),
    ExperimentSpec(
        "write_cache", "yacc", 0.1, 1991, WriteCacheConfig(entries=5)
    ),
    ExperimentSpec(
        "write_buffer", "grr", 0.1, 1991, WriteBufferConfig(retire_interval=5)
    ),
    ExperimentSpec(
        "victim_buffer",
        "met",
        0.1,
        1991,
        VictimBufferConfig(entries=3, cache=CacheConfig(size=2048)),
        flush=False,
    ),
    ExperimentSpec(
        "system",
        "linpack",
        0.1,
        1991,
        HierarchyConfig(
            levels=(LevelConfig(cache=CacheConfig(size=1024), write_cache_entries=4),)
        ),
    ),
    ExperimentSpec(
        "system",
        "ccom",
        0.1,
        1991,
        HierarchyConfig(
            levels=(
                LevelConfig(
                    cache=CacheConfig(size=1024, line_size=16),
                    victim_entries=4,
                    miss_entries=2,
                    stream_buffers=2,
                    stream_depth=4,
                ),
                LevelConfig(cache=CacheConfig(size=65536, line_size=16)),
            )
        ),
    ),
]


class TestSpecSerde:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_round_trip_preserves_content_address(self, spec):
        # Through actual JSON text, not just dicts — exactly the wire path.
        payload = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ExperimentSpec.from_dict(payload)
        assert rebuilt == spec
        assert rebuilt.digest() == spec.digest()
        assert rebuilt.canonical() == spec.canonical()

    def test_unknown_spec_field_rejected(self):
        payload = SPECS[0].to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_config_field_rejected(self):
        payload = SPECS[0].to_dict()
        payload["config"]["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            ExperimentSpec.from_dict(payload)

    def test_config_enums_cross_as_strings(self):
        payload = SPECS[0].to_dict()
        assert payload["config"]["write_hit"] == "write-through"
        assert payload["config"]["write_miss"] == "write-validate"


class TestRunEventSerde:
    def test_round_trip(self):
        event = RunEvent(
            "computed", SPECS[1], 1.25, 3, 10, attempt=2, degraded=True
        )
        rebuilt = RunEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert rebuilt == event

    def test_recovery_defaults(self):
        # attempt/degraded may be omitted by older peers.
        payload = RunEvent("store", SPECS[1], 0.0, 1, 1).to_dict()
        del payload["attempt"], payload["degraded"]
        rebuilt = RunEvent.from_dict(payload)
        assert rebuilt.attempt == 1 and rebuilt.degraded is False

    def test_unknown_field_rejected(self):
        payload = RunEvent("memory", SPECS[1], 0.0, 1, 1).to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            RunEvent.from_dict(payload)


class TestPoolTelemetrySerde:
    def test_round_trip(self):
        telemetry = PoolTelemetry(
            requested=9, deduplicated=8, computed=5, store_hits=3,
            sim_seconds=1.5, retries=2, degraded_runs=1,
        )
        rebuilt = PoolTelemetry.from_dict(
            json.loads(json.dumps(telemetry.to_dict()))
        )
        assert rebuilt == telemetry

    def test_unknown_counter_rejected(self):
        with pytest.raises(ValueError):
            PoolTelemetry.from_dict({"computed": 1, "surprise": 2})
