"""Differential suite for the vectorized hierarchy kernel.

The level-by-level kernel (:mod:`repro.hierarchy.hiersim`) must be a pure
routing decision: for every structure-free multi-level graph the
propagated miss stream has to reproduce the composed
:class:`~repro.hierarchy.system.CacheSystem` bit-identically — every
per-level counter and every boundary meter.  Hypothesis drives random
2/3-level graphs across the policy, geometry and flush space; decline
shapes (attached structures, set-associative levels, at every position)
are pinned explicitly, including the contract that vectorized upper
levels keep feeding a declining tail the exact materialized stream.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.common.errors import ConfigurationError
from repro.hierarchy import hiersim
from repro.hierarchy.system import HierarchyConfig, LevelConfig
from tests.conftest import make_trace

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

COMMON_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def vector_caches(draw) -> CacheConfig:
    """Direct-mapped stats-only configs the vector kernel supports,
    spanning line sizes (including mismatched ones across levels),
    policies, valid granularities and sub-block write-backs."""
    line_size = draw(st.sampled_from((4, 8, 16, 32, 64)))
    size = line_size * (2 ** draw(st.integers(min_value=0, max_value=6)))
    write_hit = draw(st.sampled_from(sorted(LEGAL_MISS, key=lambda p: p.value)))
    write_miss = draw(st.sampled_from(LEGAL_MISS[write_hit]))
    granularity = draw(
        st.sampled_from([g for g in (4, 8, line_size) if line_size % g == 0])
    )
    return CacheConfig(
        size=size,
        line_size=line_size,
        write_hit=write_hit,
        write_miss=write_miss,
        valid_granularity=granularity,
        subblock_dirty_writeback=draw(st.booleans()),
    )


@st.composite
def graphs(draw) -> HierarchyConfig:
    """Structure-free 2/3-level graphs, every level vector-supported."""
    depth = draw(st.integers(min_value=2, max_value=3))
    return HierarchyConfig(
        levels=tuple(
            LevelConfig(cache=draw(vector_caches())) for _ in range(depth)
        )
    )


@st.composite
def traces(draw):
    refs = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        size = draw(st.sampled_from((4, 8)))
        address = size * draw(st.integers(min_value=0, max_value=2047))
        refs.append((draw(st.sampled_from("rw")), address, size))
    return make_trace(refs, name="hiersim-diff")


def assert_identical(config, trace, flush):
    """The vectorized route reproduces the composed route stat-for-stat."""
    composed = hiersim.simulate_hierarchy(
        trace, config, flush=flush, backend="reference"
    )
    vectorized = hiersim.simulate_hierarchy(
        trace, config, flush=flush, backend="auto"
    )
    assert vectorized.to_dict() == composed.to_dict(), config.name


class TestVectorizedMatchesComposed:
    """Random structure-free graphs: the propagated stream is exact."""

    @given(config=graphs(), trace=traces(), flush=st.booleans())
    @settings(**COMMON_SETTINGS)
    def test_multi_level_bit_identical(self, config, trace, flush):
        assert_identical(config, trace, flush)

    @given(config=graphs(), trace=traces(), flush=st.booleans())
    @settings(**COMMON_SETTINGS)
    def test_forced_vector_backend_agrees(self, config, trace, flush):
        # Fully supported graphs must not decline: the forced 'vector'
        # backend runs them and matches the composed path exactly.
        composed = hiersim.simulate_hierarchy(
            trace, config, flush=flush, backend="reference"
        )
        vectorized = hiersim.simulate_hierarchy(
            trace, config, flush=flush, backend="vector"
        )
        assert vectorized.to_dict() == composed.to_dict(), config.name


#: A trace with enough conflict misses, stores and reuse to make every
#: level's write-backs, write-throughs and flush traffic non-trivial.
def busy_trace():
    refs = []
    for round_ in range(6):
        for slot in range(24):
            address = (slot * 1056 + round_ * 16) % 8192
            refs.append(("w" if (slot + round_) % 2 else "r", address & ~7, 8))
    return make_trace(refs, name="hiersim-decline")


class TestDeclineShapes:
    """Levels the kernel cannot take route through the composed path —
    after the vectorized upper levels have materialized their stream."""

    @pytest.mark.parametrize("flush", [True, False])
    def test_structured_l2_below_vectorized_l1(self, flush):
        config = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16)),
                LevelConfig(
                    cache=CacheConfig(size=4096, line_size=16), victim_entries=2
                ),
            )
        )
        assert_identical(config, busy_trace(), flush)

    @pytest.mark.parametrize("flush", [True, False])
    def test_structured_l1_declines_whole_graph(self, flush):
        config = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16), miss_entries=2),
                LevelConfig(cache=CacheConfig(size=4096, line_size=16)),
            )
        )
        assert_identical(config, busy_trace(), flush)

    @pytest.mark.parametrize("flush", [True, False])
    def test_set_associative_mid_level(self, flush):
        config = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16)),
                LevelConfig(
                    cache=CacheConfig(size=2048, line_size=16, associativity=2)
                ),
                LevelConfig(cache=CacheConfig(size=8192, line_size=32)),
            )
        )
        assert_identical(config, busy_trace(), flush)

    @pytest.mark.parametrize("flush", [True, False])
    def test_set_associative_last_level_uses_derived_meter(self, flush):
        # A bare set-associative final level is outside the vector
        # kernel's shape but still gets the fastsim + derived-meter route;
        # either way the stats must be composed-identical.
        config = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16)),
                LevelConfig(
                    cache=CacheConfig(size=4096, line_size=16, associativity=4)
                ),
            )
        )
        assert_identical(config, busy_trace(), flush)

    def test_vector_backend_raises_on_declining_level(self):
        config = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16)),
                LevelConfig(
                    cache=CacheConfig(size=4096, line_size=16), victim_entries=2
                ),
            )
        )
        with pytest.raises(ConfigurationError):
            hiersim.simulate_hierarchy(config=config, trace=busy_trace(), backend="vector")

    def test_one_level_bare_fast_path(self):
        # The one-level derived-meter fast path (no outcome export needed).
        config = HierarchyConfig(
            levels=(LevelConfig(cache=CacheConfig(size=512, line_size=16)),)
        )
        assert_identical(config, busy_trace(), True)


class TestBatchInfo:
    """The batched entry point's telemetry counts vectorized runs."""

    def test_hier_vector_runs_counts_vectorized_configs_only(self):
        vectorizable = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16)),
                LevelConfig(cache=CacheConfig(size=4096, line_size=16)),
            )
        )
        declining = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16), miss_entries=2),
                LevelConfig(cache=CacheConfig(size=4096, line_size=16)),
            )
        )
        trace = busy_trace()
        results, info = hiersim.simulate_hierarchy_batch_info(
            trace, [vectorizable, declining, vectorizable]
        )
        assert info["hier_vector_runs"] == 2
        for config, stats in zip([vectorizable, declining, vectorizable], results):
            expected = hiersim.simulate_hierarchy(trace, config, backend="reference")
            assert stats.to_dict() == expected.to_dict(), config.name

    def test_reference_backend_reports_zero_vector_runs(self):
        config = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16)),
                LevelConfig(cache=CacheConfig(size=4096, line_size=16)),
            )
        )
        _, info = hiersim.simulate_hierarchy_batch_info(
            busy_trace(), [config], backend="reference"
        )
        assert info["hier_vector_runs"] == 0
