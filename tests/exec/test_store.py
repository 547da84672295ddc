"""ResultStore: round-trips, atomicity, corruption tolerance, maintenance."""

import json

import pytest

from repro.buffers.write_cache import WriteCacheConfig
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.exec.keys import ExperimentSpec, RunKey
from repro.exec.store import (
    STORE_SCHEMA,
    ResultStore,
    default_store_root,
    open_default_store,
)


def make_key(workload="ccom", scale=0.05, seed=1991, **config_kwargs) -> RunKey:
    return RunKey(workload, scale, seed, CacheConfig(**config_kwargs))


def make_stats(reads=100) -> CacheStats:
    stats = CacheStats(reads=reads, writes=40, fetches=7)
    stats.extra["line_allocations"] = 13
    return stats


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_get_missing_is_none(self, store):
        assert store.get(make_key()) is None
        assert store.telemetry.misses == 1

    def test_put_get_identical(self, store):
        key, stats = make_key(), make_stats()
        store.put(key, stats)
        assert store.get(key) == stats
        assert store.telemetry.hits == 1 and store.telemetry.writes == 1

    def test_distinct_keys_distinct_records(self, store):
        store.put(make_key(size="1KB"), make_stats(1))
        store.put(make_key(size="2KB"), make_stats(2))
        assert store.get(make_key(size="1KB")).reads == 1
        assert store.get(make_key(size="2KB")).reads == 2
        assert len(store) == 2

    def test_overwrite_replaces(self, store):
        key = make_key()
        store.put(key, make_stats(1))
        store.put(key, make_stats(2))
        assert store.get(key).reads == 2
        assert len(store) == 1

    def test_no_temp_files_left_behind(self, store):
        store.put(make_key(), make_stats())
        leftovers = [p for p in store.root.rglob(".tmp-*")]
        assert leftovers == []


class TestCorruptionTolerance:
    def test_truncated_record_recovers(self, store):
        key = make_key()
        store.put(key, make_stats())
        path = store.path_for(key)
        path.write_text(path.read_text()[:25], encoding="utf-8")
        assert store.get(key) is None
        assert store.telemetry.corrupt == 1
        # The caller recomputes and overwrites; the store heals.
        store.put(key, make_stats())
        assert store.get(key) == make_stats()

    def test_garbage_record_recovers(self, store):
        key = make_key()
        store.put(key, make_stats())
        store.path_for(key).write_text("not json at all {{{", encoding="utf-8")
        assert store.get(key) is None
        assert store.telemetry.corrupt == 1

    def test_schema_mismatch_is_a_miss(self, store):
        key = make_key()
        store.put(key, make_stats())
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["schema"] = STORE_SCHEMA + 1
        path.write_text(json.dumps(record), encoding="utf-8")
        assert store.get(key) is None

    def test_wrong_key_content_is_a_miss(self, store):
        # A record whose body does not match its address is never trusted.
        key, other = make_key(size="1KB"), make_key(size="2KB")
        store.put(key, make_stats())
        store.path_for(other).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).rename(store.path_for(other))
        assert store.get(other) is None
        assert store.telemetry.corrupt == 1

    def test_unknown_stats_field_is_a_miss(self, store):
        key = make_key()
        store.put(key, make_stats())
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["stats"]["counter_from_the_future"] = 1
        path.write_text(json.dumps(record), encoding="utf-8")
        assert store.get(key) is None


class TestMaintenance:
    def test_stats_counts_records_and_bytes(self, store):
        store.put(make_key(size="1KB"), make_stats())
        store.put(make_key(size="2KB"), make_stats())
        summary = store.stats()
        assert summary["records"] == 2
        assert summary["bytes"] > 0
        assert summary["root"] == str(store.root)

    def test_clear_removes_everything(self, store):
        store.put(make_key(size="1KB"), make_stats())
        store.put(make_key(size="2KB"), make_stats())
        assert store.clear() == 2
        assert len(store) == 0

    def test_gc_drops_corrupt_keeps_good(self, store):
        good, bad = make_key(size="1KB"), make_key(size="2KB")
        store.put(good, make_stats())
        store.put(bad, make_stats())
        store.path_for(bad).write_text("garbage", encoding="utf-8")
        kept, removed = store.gc()
        assert (kept, removed) == (1, 1)
        assert store.get(good) is not None
        assert not store.path_for(bad).exists()


class TestMixedKinds:
    """Records of several kinds share one store without interfering."""

    @pytest.fixture()
    def populated(self, store):
        """One record each of cache, write_cache and system kind."""
        from repro.buffers.write_cache import WriteCacheStats
        from repro.hierarchy.memory import TrafficMeter
        from repro.hierarchy.system import HierarchyConfig, LevelStats, SystemStats

        cache_key = make_key(size="1KB")
        wc_key = ExperimentSpec(
            "write_cache", "ccom", 0.05, 1991, WriteCacheConfig(entries=5)
        )
        sys_key = ExperimentSpec("system", "ccom", 0.05, 1991, HierarchyConfig())
        store.put(cache_key, make_stats())
        store.put(wc_key, WriteCacheStats(writes=50, merged=20))
        store.put(
            sys_key,
            SystemStats(
                levels=[LevelStats(cache=make_stats())],
                boundaries=[TrafficMeter(fetches=7)],
            ),
        )
        return {"cache": cache_key, "write_cache": wc_key, "system": sys_key}

    def test_round_trips_interleaved(self, store, populated):
        from repro.buffers.write_cache import WriteCacheStats
        from repro.hierarchy.system import SystemStats

        assert isinstance(store.get(populated["cache"]), CacheStats)
        assert isinstance(store.get(populated["write_cache"]), WriteCacheStats)
        assert isinstance(store.get(populated["system"]), SystemStats)

    def test_put_wrong_stats_type_rejected(self, store, populated):
        with pytest.raises(TypeError):
            store.put(populated["write_cache"], make_stats())

    def test_stats_groups_by_kind(self, store, populated):
        summary = store.stats()
        assert summary["records"] == 3
        assert summary["by_kind"] == {"cache": 1, "system": 1, "write_cache": 1}

    def test_clear_removes_all_kinds(self, store, populated):
        assert store.clear() == 3
        assert len(store) == 0

    def test_kind_schema_mismatch_is_a_miss(self, store, populated):
        key = populated["write_cache"]
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["kind_schema"] = record["kind_schema"] + 1
        path.write_text(json.dumps(record), encoding="utf-8")
        assert store.get(key) is None
        assert store.telemetry.corrupt == 1
        # The other kinds are untouched.
        assert store.get(populated["cache"]) is not None
        assert store.get(populated["system"]) is not None

    def test_corrupt_record_of_one_kind_does_not_poison_others(
        self, store, populated
    ):
        store.path_for(populated["system"]).write_text("{{{", encoding="utf-8")
        kept, removed = store.gc()
        assert (kept, removed) == (2, 1)
        assert store.get(populated["cache"]) is not None
        assert store.get(populated["write_cache"]) is not None
        assert not store.path_for(populated["system"]).exists()
        summary = store.stats()
        assert summary["by_kind"] == {"cache": 1, "write_cache": 1}

    def test_gc_drops_unregistered_kind_records(self, store, populated):
        key = populated["cache"]
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["kind"] = "retired_family"
        path.write_text(json.dumps(record), encoding="utf-8")
        # Reads of the proper kinds still work; gc removes only the orphan.
        kept, removed = store.gc()
        assert (kept, removed) == (2, 1)
        assert store.get(populated["write_cache"]) is not None
        assert store.get(populated["system"]) is not None


class TestEnvironment:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_DIR", str(tmp_path / "custom"))
        assert open_default_store().root == tmp_path / "custom"

    @pytest.mark.parametrize("value", ["off", "none", "0", "", "OFF"])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_RESULT_DIR", value)
        assert default_store_root() is None
        assert open_default_store() is None

    def test_default_under_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RESULT_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_store_root() == tmp_path / "repro" / "results"
