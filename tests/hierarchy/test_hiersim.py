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
from repro.hierarchy import hiersim
from repro.hierarchy.system import CacheSystem, HierarchyConfig, LevelConfig
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


def composed(trace, config, flush=True):
    """The whole graph through the composed reference path."""
    system = CacheSystem(config)
    system.run(trace, flush=flush)
    return system.system_stats()


def assert_identical(config, trace, flush):
    """The vectorized route reproduces the composed route stat-for-stat."""
    vectorized = hiersim.simulate_hierarchy(trace, config, flush=flush)
    assert vectorized.to_dict() == composed(trace, config, flush).to_dict(), config.name


class TestVectorizedMatchesComposed:
    """Random structure-free graphs: the propagated stream is exact."""

    @given(config=graphs(), trace=traces(), flush=st.booleans())
    @settings(**COMMON_SETTINGS)
    def test_multi_level_bit_identical(self, config, trace, flush):
        assert_identical(config, trace, flush)

    @given(config=graphs(), trace=traces(), flush=st.booleans())
    @settings(**COMMON_SETTINGS)
    def test_forced_vector_backend_agrees(self, config, trace, flush):
        # Fully supported graphs must not decline: every level runs
        # through the vector kernel and matches the composed path exactly.
        stats, vectorized = hiersim._simulate(trace, config, flush)
        assert vectorized == len(config.levels), config.name
        assert stats.to_dict() == composed(trace, config, flush).to_dict(), config.name


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
    def test_set_associative_last_level_declines(self, flush, monkeypatch):
        # A bare set-associative final level is outside the vector
        # kernel's shape, so it declines like any other such level: the
        # L1 vectorizes and the stats stay composed-identical.
        config = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16)),
                LevelConfig(
                    cache=CacheConfig(size=4096, line_size=16, associativity=4)
                ),
            )
        )
        declined = []
        composed_route = hiersim._composed

        def spy(trace, levels, flush):
            declined.append(levels)
            return composed_route(trace, levels, flush)

        monkeypatch.setattr(hiersim, "_composed", spy)
        assert_identical(config, busy_trace(), flush)
        assert declined == [config.levels[1:]]

    def test_declining_level_stops_vectorization(self):
        # The bare L1 vectorizes; the structured L2 declines, so exactly
        # one level goes through the vector kernel.
        config = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16)),
                LevelConfig(
                    cache=CacheConfig(size=4096, line_size=16), victim_entries=2
                ),
            )
        )
        stats, vectorized = hiersim._simulate(busy_trace(), config, True)
        assert vectorized == 1
        assert stats.to_dict() == composed(busy_trace(), config).to_dict()

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
            assert stats.to_dict() == composed(trace, config).to_dict(), config.name

    @staticmethod
    def two_level_grid():
        """Two L1 sizes at each of two L1 line sizes, over one L2."""
        return [
            HierarchyConfig(
                levels=(
                    LevelConfig(cache=CacheConfig(size=size, line_size=line_size)),
                    LevelConfig(cache=CacheConfig(size=8192, line_size=32)),
                )
            )
            for line_size in (16, 32)
            for size in (512, 1024)
        ]

    def test_one_level0_plan_per_line_size(self, built_plans):
        # The grid shares its top-level plans: one per L1 line size, no
        # matter how many configs use it.
        trace = busy_trace()
        hiersim.simulate_hierarchy_batch_info(trace, self.two_level_grid())
        top = [line for planned, line in built_plans.plans if planned is trace]
        assert sorted(top) == [16, 32]

    def test_batch_frees_its_plans_on_return(self, built_plans):
        trace = busy_trace()
        grid = self.two_level_grid()
        results, info = hiersim.simulate_hierarchy_batch_info(trace, grid)
        assert info["hier_vector_runs"] == len(grid)
        assert built_plans.arrays
        assert built_plans.alive() == []
        for config, stats in zip(grid, results):
            assert stats.to_dict() == composed(trace, config).to_dict(), config.name
