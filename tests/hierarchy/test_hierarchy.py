"""Hierarchy-graph contracts: differential, golden pin, config serde.

Three guarantees of the declarative hierarchy refactor:

- **Boundary invariance** (hypothesis differential): what the first level
  emits is a property of that level alone.  Stacking *any* L2 underneath
  must leave the L1 stats and the L1->L2 boundary meter bit-identical to
  the flat one-level system, for every policy/geometry/structure combo.
- **Golden pin**: the literal nested ``SystemStats`` dict of one fully
  structured two-level run, so a semantics drift in any composed piece
  (victim, miss cache, stream buffers, metering) fails loudly.  If a
  change breaks this on purpose, bump ``SYSTEM_ENGINE_VERSION`` and
  regenerate the dict in the same commit (regeneration: load the golden
  workload, ``simulate_hierarchy(trace, GOLDEN_CONFIG)``, print
  ``stats.to_dict()``).
- **Config serde**: hierarchy configs round-trip the wire exactly —
  unknown keys raise, the legacy flat ``system`` payload shape still
  decodes, and decoding preserves the cache key (hence store digests).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.common.errors import ConfigurationError
from repro.hierarchy import HierarchyConfig, LevelConfig, simulate_hierarchy
from repro.trace.corpus import load
from repro.trace.events import READ, WRITE
from repro.trace.trace import Trace

#: Hit -> legal miss policies (write-back cannot pair with no-allocate).
LEGAL_MISS = {
    WriteHitPolicy.WRITE_BACK: (
        WriteMissPolicy.FETCH_ON_WRITE,
        WriteMissPolicy.WRITE_VALIDATE,
    ),
    WriteHitPolicy.WRITE_THROUGH: (
        WriteMissPolicy.FETCH_ON_WRITE,
        WriteMissPolicy.WRITE_VALIDATE,
        WriteMissPolicy.WRITE_AROUND,
        WriteMissPolicy.WRITE_INVALIDATE,
    ),
}


@st.composite
def level_configs(draw) -> LevelConfig:
    """A small L1 with a random legal mix of attached structures."""
    line_size = draw(st.sampled_from((16, 32)))
    size = line_size * (2 ** draw(st.integers(min_value=1, max_value=5)))
    write_hit = draw(st.sampled_from(sorted(LEGAL_MISS, key=lambda p: p.value)))
    write_miss = draw(st.sampled_from(LEGAL_MISS[write_hit]))
    cache = CacheConfig(
        size=size, line_size=line_size, write_hit=write_hit, write_miss=write_miss
    )
    write_cache_entries = (
        draw(st.sampled_from((0, 2)))
        if write_hit is WriteHitPolicy.WRITE_THROUGH
        else 0
    )
    streams = draw(st.sampled_from((0, 2)))
    return LevelConfig(
        cache=cache,
        write_cache_entries=write_cache_entries,
        victim_entries=draw(st.sampled_from((0, 2))),
        miss_entries=draw(st.sampled_from((0, 2))),
        stream_buffers=streams,
        stream_depth=2 if streams else 4,
    )


@st.composite
def traces(draw) -> Trace:
    refs = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        size = draw(st.sampled_from((4, 8)))
        address = size * draw(st.integers(min_value=0, max_value=2047))
        refs.append((draw(st.sampled_from("rw")), address, size))
    from tests.conftest import make_trace

    return make_trace(refs, name="hier-diff")


COMMON_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBoundaryInvariance:
    """Any L2 under the L1 leaves the L1 and its boundary bit-identical."""

    @given(
        level=level_configs(),
        trace=traces(),
        l2_lines=st.integers(min_value=0, max_value=3),
        flush=st.booleans(),
    )
    @settings(**COMMON_SETTINGS)
    def test_two_level_first_level_equals_flat(self, level, trace, l2_lines, flush):
        flat = simulate_hierarchy(trace, HierarchyConfig(levels=(level,)), flush=flush)
        l2 = LevelConfig(
            cache=CacheConfig(size=(2 ** l2_lines) * 64, line_size=64)
        )
        two = simulate_hierarchy(
            trace, HierarchyConfig(levels=(level, l2)), flush=flush
        )
        assert two.levels[0].to_dict() == flat.levels[0].to_dict()
        assert two.boundaries[0].to_dict() == flat.boundaries[0].to_dict()
        # Bookkeeping the flat system cannot check: the last boundary is
        # the memory meter, and the L2's own demand traffic must be what
        # reaches it.
        assert two.boundaries[-1].fetches == two.levels[1].cache.fetches


GOLDEN_WORKLOAD = ("ccom", 0.05, 1991)  # (name, scale, seed)
GOLDEN_TRACE_LENGTH = 11280
GOLDEN_CONFIG = HierarchyConfig(
    levels=(
        LevelConfig(
            cache=CacheConfig(size=1024, line_size=16),
            victim_entries=4,
            miss_entries=4,
            stream_buffers=2,
            stream_depth=4,
        ),
        LevelConfig(cache=CacheConfig(size=8192, line_size=16)),
    )
)

#: The exact L1 counters; identical to tests/cache/test_golden_stats.py's
#: ``GOLDEN_STATS`` because attached structures sit *below* the L1 and
#: must not perturb it.
GOLDEN_L1 = {
    "reads": 6462,
    "writes": 4818,
    "read_line_accesses": 6462,
    "write_line_accesses": 4818,
    "read_hits": 3459,
    "read_misses": 3003,
    "read_partial_misses": 0,
    "write_hits": 3968,
    "write_misses": 850,
    "writes_to_dirty_lines": 3772,
    "fetches": 3853,
    "fetch_bytes": 61648,
    "fetches_for_reads": 3003,
    "fetches_for_partial_reads": 0,
    "fetches_for_writes": 850,
    "writebacks": 1034,
    "writeback_bytes": 16544,
    "writeback_dirty_bytes": 13292,
    "write_throughs": 0,
    "write_through_bytes": 0,
    "victims": 3789,
    "dirty_victims": 1034,
    "dirty_victim_dirty_bytes": 13292,
    "validate_allocations": 0,
    "invalidations": 0,
    "flushed_lines": 64,
    "flushed_dirty_lines": 12,
    "flushed_dirty_bytes": 168,
    "flush_writeback_bytes": 192,
    "instructions": 25380,
    "line_size": 16,
    "extra": {},
}

GOLDEN_L2 = {
    "reads": 13903,
    "writes": 1808,
    "read_line_accesses": 13903,
    "write_line_accesses": 1808,
    "read_hits": 5594,
    "read_misses": 8309,
    "read_partial_misses": 0,
    "write_hits": 1517,
    "write_misses": 291,
    "writes_to_dirty_lines": 827,
    "fetches": 8600,
    "fetch_bytes": 137600,
    "fetches_for_reads": 8309,
    "fetches_for_partial_reads": 0,
    "fetches_for_writes": 291,
    "writebacks": 914,
    "writeback_bytes": 14624,
    "writeback_dirty_bytes": 12344,
    "write_throughs": 0,
    "write_through_bytes": 0,
    "victims": 8088,
    "dirty_victims": 914,
    "dirty_victim_dirty_bytes": 12344,
    "validate_allocations": 0,
    "invalidations": 0,
    "flushed_lines": 512,
    "flushed_dirty_lines": 67,
    "flushed_dirty_bytes": 916,
    "flush_writeback_bytes": 1072,
    "instructions": 0,
    "line_size": 16,
    "extra": {},
}

GOLDEN_SYSTEM = {
    "levels": [
        {
            "cache": GOLDEN_L1,
            "victim_cache": {
                "inserts": 3789,
                "fetch_probes": 3853,
                "hits": 119,
                "evictions": 3666,
                "dirty_evictions": 947,
            },
            "miss_cache": {
                "inserts": 3729,
                "fetch_probes": 3734,
                "hits": 5,
                "evictions": 3725,
            },
            "stream_buffer": {
                "fetch_probes": 3729,
                "hits": 2194,
                "allocations": 1535,
                "prefetch_fetches": 12368,
            },
        },
        {"cache": GOLDEN_L2},
    ],
    "boundaries": [
        {
            "fetches": 13903,
            "fetch_bytes": 222448,
            "writebacks": 1046,
            "writeback_bytes": 16736,
            "write_throughs": 0,
            "write_through_bytes": 0,
        },
        {
            "fetches": 8600,
            "fetch_bytes": 137600,
            "writebacks": 981,
            "writeback_bytes": 15696,
            "write_throughs": 0,
            "write_through_bytes": 0,
        },
    ],
}


class TestGoldenSystem:
    @pytest.fixture(scope="class")
    def golden_stats(self):
        name, scale, seed = GOLDEN_WORKLOAD
        trace = load(name, scale=scale, seed=seed)
        assert len(trace) == GOLDEN_TRACE_LENGTH, "workload generator drifted"
        return simulate_hierarchy(trace, GOLDEN_CONFIG, flush=True)

    def test_structured_two_level_matches_golden(self, golden_stats):
        assert golden_stats.to_dict() == GOLDEN_SYSTEM

    def test_probe_order_chains_the_structures(self, golden_stats):
        # Victim first, then miss cache, then streams: each structure's
        # probes are exactly the previous one's misses.
        l1 = golden_stats.levels[0]
        victim, miss, stream = l1.victim_cache, l1.miss_cache, l1.stream_buffer
        assert victim.fetch_probes == golden_stats.l1.fetches
        assert miss.fetch_probes == victim.fetch_probes - victim.hits
        assert stream.fetch_probes == miss.fetch_probes - miss.hits

    def test_derived_metrics(self, golden_stats):
        structure_hits = 119 + 5 + 2194
        accesses = GOLDEN_L1["reads"] + GOLDEN_L1["writes"]
        expected = (GOLDEN_L1["fetches"] - structure_hits) / accesses
        assert golden_stats.effective_miss_ratio == pytest.approx(expected)
        assert golden_stats.memory.to_dict() == GOLDEN_SYSTEM["boundaries"][-1]


class TestConfigSerde:
    def test_hierarchy_round_trip(self):
        config = GOLDEN_CONFIG
        decoded = HierarchyConfig.from_dict(config.to_dict())
        assert decoded == config
        assert decoded.cache_key() == config.cache_key()

    def test_unknown_hierarchy_key_raises(self):
        with pytest.raises(ValueError):
            HierarchyConfig.from_dict({"levels": [], "depth": 3})

    def test_unknown_level_key_raises(self):
        payload = GOLDEN_CONFIG.to_dict()
        payload["levels"][0]["prefetch_degree"] = 2
        with pytest.raises(ValueError):
            HierarchyConfig.from_dict(payload)

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(levels=())

    @pytest.mark.parametrize(
        "payload",
        [
            {
                "cache": CacheConfig(size=1024).to_dict(),
                "write_cache_entries": 0,
                "victim_entries": 4,
            },
            {},
        ],
        ids=["flat", "empty"],
    )
    def test_payload_without_levels_rejected(self, payload):
        # Neither the pre-hierarchy flat shape nor an empty object may
        # silently decode to some default hierarchy.
        with pytest.raises(ValueError, match="levels"):
            HierarchyConfig.from_dict(payload)

    def test_one_level_key_matches_flat_era(self):
        # A one-level hierarchy keeps the identity string the flat-era
        # system config hashed to, so stored results stay addressable.
        config = HierarchyConfig(levels=(LevelConfig(cache=CacheConfig(size=2048)),))
        assert config.cache_key() == (
            "hier:lvl_wc=0:victims=0:miss=0:streams=0x4:size=2048:line=16:"
            "assoc=1:hit=write-back:miss=fetch-on-write:vgran=4:subwb=0:"
            "subfetch=0:repl=lru:data=0"
        )


class TestNaming:
    def test_level_name_labels_every_structure(self):
        level = LevelConfig(
            cache=CacheConfig(size=1024, line_size=16),
            write_cache_entries=8,
            victim_entries=4,
            miss_entries=2,
            stream_buffers=4,
            stream_depth=6,
        )
        assert level.name.startswith("1KB/16B")
        for tag in ("+WC8", "+VC4", "+MC2", "+SB4x6"):
            assert tag in level.name

    def test_hierarchy_name_joins_levels(self):
        assert (
            "+VC4+MC4+SB2x4->8KB" in GOLDEN_CONFIG.name
        ), GOLDEN_CONFIG.name

    def test_cache_keys_distinguish_structures(self):
        base = LevelConfig(cache=CacheConfig(size=1024))
        keys = {
            HierarchyConfig(levels=(variant,)).cache_key()
            for variant in (
                base,
                LevelConfig(cache=CacheConfig(size=1024), victim_entries=4),
                LevelConfig(cache=CacheConfig(size=1024), miss_entries=4),
                LevelConfig(cache=CacheConfig(size=1024), stream_buffers=4),
                LevelConfig(cache=CacheConfig(size=1024), stream_depth=8),
            )
        }
        assert len(keys) == 5
