"""Integration tests of system composition (L1 + buffers + memory)."""

import pytest

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.cache.stats import CacheStats
from repro.hierarchy.memory import MainMemory, TrafficMeter
from repro.hierarchy.system import (
    CacheLevelBackend,
    CacheSystem,
    HierarchyConfig,
    LevelConfig,
    LevelStats,
    SystemStats,
)
from repro.hierarchy.hiersim import simulate_hierarchy


def one_level(cache, **structures):
    """A one-level hierarchy: ``cache`` plus its attached structures."""
    return HierarchyConfig(levels=(LevelConfig(cache=cache, **structures),))


class TestCacheSystem:
    def test_write_through_traffic_reaches_memory(self, small_corpus):
        trace = small_corpus["ccom"][:5000]
        system = CacheSystem(
            CacheConfig(size=1024, line_size=16, write_hit=WriteHitPolicy.WRITE_THROUGH)
        )
        stats = system.run(trace)
        meter = system.memory_traffic
        assert meter.fetches == stats.fetches
        assert meter.write_throughs == stats.write_throughs

    def test_write_cache_reduces_memory_write_transactions(self, small_corpus):
        trace = small_corpus["ccom"][:8000]
        plain = CacheSystem(
            CacheConfig(size=1024, line_size=16, write_hit=WriteHitPolicy.WRITE_THROUGH)
        )
        plain.run(trace)
        buffered = CacheSystem(
            one_level(
                CacheConfig(
                    size=1024, line_size=16, write_hit=WriteHitPolicy.WRITE_THROUGH
                ),
                write_cache_entries=5,
            )
        )
        buffered.run(trace)
        assert (
            buffered.memory_traffic.write_transactions
            < plain.memory_traffic.write_transactions
        )
        # Fetch traffic is untouched by the write cache.
        assert buffered.memory_traffic.fetches == plain.memory_traffic.fetches

    def test_write_cache_requires_write_through(self):
        with pytest.raises(ValueError):
            CacheSystem(
                one_level(CacheConfig(size=1024, line_size=16), write_cache_entries=4)
            )

    def test_write_back_system_flush_traffic(self, small_corpus):
        trace = small_corpus["yacc"][:5000]
        system = CacheSystem(CacheConfig(size=1024, line_size=16))
        stats = system.run(trace, flush=True)
        meter = system.memory_traffic
        assert meter.writebacks == stats.writebacks + stats.flushed_dirty_lines


class TestTwoLevel:
    def test_l2_sees_l1_misses_only(self, small_corpus):
        trace = small_corpus["met"][:5000]
        l2_memory = MainMemory()
        l2 = Cache(CacheConfig(size=16 * 1024, line_size=16), backend=l2_memory)
        l1 = Cache(
            CacheConfig(size=1024, line_size=16, write_hit=WriteHitPolicy.WRITE_THROUGH),
            backend=CacheLevelBackend(l2),
        )
        l1.run(trace)
        # Every L1 fetch appears as one L2 line-sized read access.
        assert l2.stats.reads == l1.stats.fetches
        assert l2.stats.writes == l1.stats.write_throughs
        # The L2 filters: its misses are far fewer than its accesses.
        assert l2.stats.fetches < l2.stats.reads + l2.stats.writes

    def test_write_back_extent_split_counts(self):
        # Dirty mask with two extents: bytes 0-3 (one 4 B store) and
        # bytes 8-15 (one aligned 8 B store).
        l2 = Cache(CacheConfig(size=1024, line_size=16))
        CacheLevelBackend(l2).write_back(0x100, 16, dirty_mask=0xFF0F)
        assert l2.stats.writes == 2
        assert l2.stats.write_line_accesses == 2

    def test_full_line_writeback_is_two_doubles(self):
        l2 = Cache(CacheConfig(size=1024, line_size=16))
        CacheLevelBackend(l2).write_back(0x100, 16, dirty_mask=0xFFFF)
        assert l2.stats.writes == 2  # two aligned 8 B stores


class TestSubWordWritebackExtents:
    """Sub-word dirty extents must reach the lower level at exact width.

    Regression: write_back used to round every extent up to a 4 B store,
    inflating lower-level write traffic for byte- and halfword-granularity
    dirty masks.  A metered write-through L2 exposes the exact byte count
    of each store the backend issues.
    """

    @staticmethod
    def metered_l2():
        memory = MainMemory()
        l2 = Cache(
            CacheConfig(
                size=1024,
                line_size=16,
                write_hit=WriteHitPolicy.WRITE_THROUGH,
                write_miss=WriteMissPolicy.WRITE_AROUND,
            ),
            backend=memory,
        )
        return CacheLevelBackend(l2), l2, memory

    def test_halfword_extent_is_one_two_byte_store(self):
        backend, l2, memory = self.metered_l2()
        backend.write_back(0x100, 16, dirty_mask=0x0030)  # bytes 4-5 dirty
        assert l2.stats.writes == 1
        assert memory.meter.write_through_bytes == 2

    def test_single_dirty_byte_is_one_byte_store(self):
        backend, l2, memory = self.metered_l2()
        backend.write_back(0x100, 16, dirty_mask=0x0008)  # byte 3 dirty
        assert l2.stats.writes == 1
        assert memory.meter.write_through_bytes == 1

    def test_misaligned_extent_splits_without_widening(self):
        # Bytes 1-3 dirty: a 1 B store at 0x101 plus a 2 B store at 0x102;
        # exactly three bytes cross the boundary, never four.
        backend, l2, memory = self.metered_l2()
        backend.write_back(0x100, 16, dirty_mask=0x000E)
        assert l2.stats.writes == 2
        assert memory.meter.write_through_bytes == 3

    def test_aligned_word_extent_stays_one_store(self):
        backend, l2, memory = self.metered_l2()
        backend.write_back(0x100, 16, dirty_mask=0x00F0)  # bytes 4-7 dirty
        assert l2.stats.writes == 1
        assert memory.meter.write_through_bytes == 4


class TestVictimComposition:
    def test_victim_cache_reduces_memory_fetches(self, small_corpus):
        trace = small_corpus["met"][:8000]
        config = CacheConfig(size=1024, line_size=16)
        plain = CacheSystem(config)
        plain.run(trace)
        with_victims = CacheSystem(one_level(config, victim_entries=4))
        with_victims.run(trace)
        victim_cache = with_victims.system_stats().levels[0].victim_cache
        assert victim_cache is not None
        assert victim_cache.hits > 0
        assert (
            with_victims.memory_traffic.fetches < plain.memory_traffic.fetches
        )


class TestSystemStatsSerde:
    def test_round_trip_bare(self):
        stats = SystemStats(
            levels=[LevelStats(cache=CacheStats(reads=10, writes=3))],
            boundaries=[TrafficMeter(fetches=4)],
        )
        assert SystemStats.from_dict(stats.to_dict()) == stats

    def test_round_trip_with_structures(self, small_corpus):
        trace = small_corpus["ccom"][:5000]
        system = CacheSystem(
            one_level(
                CacheConfig(
                    size=1024, line_size=16, write_hit=WriteHitPolicy.WRITE_THROUGH
                ),
                write_cache_entries=5,
            )
        )
        system.run(trace)
        stats = system.system_stats()
        assert stats.levels[0].write_cache is not None
        restored = SystemStats.from_dict(stats.to_dict())
        assert restored == stats
        assert restored.levels[0].write_cache == stats.levels[0].write_cache

    def test_optional_fields_omitted_when_absent(self):
        payload = SystemStats().to_dict()
        assert set(payload) == {"levels", "boundaries"}
        assert set(payload["levels"][0]) == {"cache"}

    def test_unknown_field_raises(self):
        payload = SystemStats().to_dict()
        payload["victim_buffer"] = {}
        with pytest.raises(ValueError):
            SystemStats.from_dict(payload)

    def test_unknown_level_field_raises(self):
        payload = SystemStats().to_dict()
        payload["levels"][0]["victim_buffer"] = {}
        with pytest.raises(ValueError):
            SystemStats.from_dict(payload)


class TestDerivedMeterFastPath:
    """simulate_hierarchy's derived meter must match the composed hierarchy."""

    @pytest.mark.parametrize(
        "config",
        [
            CacheConfig(size=1024, line_size=16),
            CacheConfig(size=4096, line_size=32),
            CacheConfig(
                size=1024,
                line_size=16,
                write_hit=WriteHitPolicy.WRITE_THROUGH,
                write_miss=WriteMissPolicy.WRITE_AROUND,
            ),
        ],
        ids=lambda config: config.name,
    )
    @pytest.mark.parametrize("flush", [True, False])
    def test_fast_path_matches_composed_system(self, small_corpus, config, flush):
        trace = small_corpus["yacc"][:5000]
        fast = simulate_hierarchy(trace, one_level(config), flush=flush)
        composed = CacheSystem(config)
        composed.run(trace, flush=flush)
        assert fast.to_dict() == composed.system_stats().to_dict()
