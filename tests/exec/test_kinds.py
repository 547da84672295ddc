"""Experiment registry: per-kind dispatch, differential identity, extension.

The acceptance bar for the kind-dispatched experiment layer: for every
registered simulator family, a mixed-kind batch resolves to bit-identical
stats whether it runs serially or fanned out across worker processes, and
a warm store serves the whole batch back without a single simulation.
"""

import dataclasses

import pytest

from repro.buffers.victim_buffer import VictimBufferConfig
from repro.buffers.write_buffer import WriteBufferConfig
from repro.buffers.write_cache import WriteCacheConfig
from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.core.runner import experiment_key
from repro.exec import experiments
from repro.exec.experiments import (
    UnknownExperimentKind,
    get_kind,
    register_runner,
    registered_kinds,
    unregister_runner,
)
from repro.exec.keys import ExperimentSpec
from repro.exec.pool import ExperimentPool
from repro.exec.store import ResultStore
from repro.hierarchy.system import HierarchyConfig, LevelConfig

SCALE = 0.05
SEED = 1991

WRITE_THROUGH = CacheConfig(
    size=4096,
    line_size=16,
    write_hit=WriteHitPolicy.WRITE_THROUGH,
    write_miss=WriteMissPolicy.WRITE_AROUND,
)


def mixed_batch():
    """At least one spec of every builtin kind, including composites."""
    return [
        experiment_key(
            "cache", "ccom", CacheConfig(size=4096, line_size=16), SCALE, SEED
        ),
        experiment_key(
            "cache", "yacc", CacheConfig(size=1024, line_size=16), SCALE, SEED
        ),
        ExperimentSpec("write_cache", "ccom", SCALE, SEED, WriteCacheConfig(entries=5)),
        ExperimentSpec(
            "write_buffer", "grr", SCALE, SEED, WriteBufferConfig(retire_interval=5)
        ),
        ExperimentSpec(
            "victim_buffer",
            "met",
            SCALE,
            SEED,
            VictimBufferConfig(cache=CacheConfig(size=1024, line_size=16)),
        ),
        ExperimentSpec(
            "system",
            "ccom",
            SCALE,
            SEED,
            HierarchyConfig(levels=(LevelConfig(cache=CacheConfig(size=4096)),)),
        ),
        ExperimentSpec(
            "system",
            "yacc",
            SCALE,
            SEED,
            HierarchyConfig(
                levels=(LevelConfig(cache=WRITE_THROUGH, write_cache_entries=5),)
            ),
        ),
        ExperimentSpec(
            "system",
            "grr",
            SCALE,
            SEED,
            HierarchyConfig(
                levels=(LevelConfig(cache=CacheConfig(size=1024), victim_entries=4),)
            ),
        ),
        # Two-level hierarchy graphs with every attachable structure:
        # these shapes only exist post-refactor, so they prove the full
        # nested config/stats serde across the pool's worker boundary.
        ExperimentSpec(
            "system",
            "met",
            SCALE,
            SEED,
            HierarchyConfig(
                levels=(
                    LevelConfig(
                        cache=CacheConfig(size=1024, line_size=16),
                        victim_entries=4,
                        miss_entries=2,
                    ),
                    LevelConfig(cache=CacheConfig(size=16384, line_size=16)),
                )
            ),
        ),
        ExperimentSpec(
            "system",
            "linpack",
            SCALE,
            SEED,
            HierarchyConfig(
                levels=(
                    LevelConfig(
                        cache=CacheConfig(size=1024, line_size=16),
                        stream_buffers=2,
                        stream_depth=4,
                    ),
                    LevelConfig(cache=CacheConfig(size=16384, line_size=16)),
                )
            ),
        ),
    ]


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestBuiltinKinds:
    def test_every_builtin_registered(self):
        assert set(registered_kinds()) >= {
            "cache",
            "system",
            "victim_buffer",
            "write_buffer",
            "write_cache",
        }

    def test_stats_type_kind_tags_match(self):
        for name in registered_kinds():
            assert get_kind(name).stats_type.kind == name

    def test_batch_covers_every_builtin_kind(self):
        assert {spec.kind for spec in mixed_batch()} == set(registered_kinds())


class TestSerialParallelIdentity:
    def test_mixed_batch_bit_identical(self, store, tmp_path):
        """Per-kind differential: serial == jobs=2 == jobs=3, bit for bit."""
        batch = mixed_batch()
        serial = ExperimentPool(store=None, jobs=1).run_many(batch)
        for jobs in (2, 3):
            parallel = ExperimentPool(
                store=ResultStore(tmp_path / f"store-{jobs}"), jobs=jobs
            ).run_many(batch)
            for spec in batch:
                assert type(parallel[spec]) is type(serial[spec]), spec.describe()
                assert (
                    parallel[spec].to_dict() == serial[spec].to_dict()
                ), spec.describe()

    def test_warm_store_serves_every_kind(self, store):
        batch = mixed_batch()
        first = ExperimentPool(store=store, jobs=2)
        expected = first.run_many(batch)
        assert first.telemetry.computed == len(batch)

        second = ExperimentPool(store=store, jobs=2)
        results = second.run_many(batch)
        assert second.telemetry.computed == 0
        assert second.telemetry.store_hits == len(batch)
        for spec in batch:
            assert results[spec].to_dict() == expected[spec].to_dict()

    def test_store_round_trip_preserves_type_per_kind(self, store):
        batch = mixed_batch()
        ExperimentPool(store=store, jobs=1).run_many(batch)
        for spec in batch:
            loaded = store.get(spec)
            assert type(loaded) is get_kind(spec.kind).stats_type


class TestDispatchErrors:
    def test_unknown_kind_fails_before_any_work(self, store):
        batch = mixed_batch()
        batch.append(dataclasses.replace(batch[0], kind="quantum_cache"))
        pool = ExperimentPool(store=store, jobs=1)
        with pytest.raises(UnknownExperimentKind):
            pool.run_many(batch)
        assert pool.telemetry.computed == 0
        assert len(store) == 0


class _ToyStats:
    kind = "toy"

    def __init__(self, value=0):
        self.value = value

    def to_dict(self):
        return {"value": self.value}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def __eq__(self, other):
        return isinstance(other, _ToyStats) and other.value == self.value


def _run_toy(specs, trace):
    return [_ToyStats(value=len(trace)) for _ in specs], {}


class TestRegistration:
    @pytest.fixture(autouse=True)
    def _cleanup(self):
        yield
        unregister_runner("toy")

    def test_custom_kind_dispatches_through_pool(self, store):
        register_runner("toy", _run_toy, _ToyStats, engine_version="1")
        spec = ExperimentSpec("toy", "ccom", SCALE, SEED, CacheConfig(size=1024))
        results = ExperimentPool(store=store, jobs=1).run_many([spec])
        assert isinstance(results[spec], _ToyStats)
        assert results[spec].value > 0
        # And it persists/reloads through the store like any builtin.
        assert store.get(spec) == results[spec]

    def test_duplicate_registration_rejected(self):
        register_runner("toy", _run_toy, _ToyStats, engine_version="1")
        with pytest.raises(experiments.ConfigurationError):
            register_runner("toy", _run_toy, _ToyStats, engine_version="2")
        # Explicit replace bumps the engine version (and hence addresses).
        kind = register_runner(
            "toy", _run_toy, _ToyStats, engine_version="2", replace=True
        )
        assert kind.engine_version == "2"

    def test_mismatched_stats_kind_rejected(self):
        with pytest.raises(experiments.ConfigurationError):
            register_runner("not_toy", _run_toy, _ToyStats, engine_version="1")

    def test_engine_version_is_isolated_per_kind(self, monkeypatch):
        register_runner("toy", _run_toy, _ToyStats, engine_version="1")
        spec = ExperimentSpec("toy", "ccom", SCALE, SEED, CacheConfig(size=1024))
        cache_spec = experiment_key(
            "cache", "ccom", CacheConfig(size=1024), SCALE, SEED
        )
        before_toy, before_cache = spec.digest(), cache_spec.digest()
        monkeypatch.setitem(
            experiments._REGISTRY,
            "toy",
            dataclasses.replace(get_kind("toy"), engine_version="99"),
        )
        assert spec.digest() != before_toy
        assert cache_spec.digest() == before_cache
