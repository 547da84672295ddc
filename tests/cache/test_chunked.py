"""Chunk-resumed simulation is bit-identical to one-shot, everywhere.

Hypothesis drives random traces, geometries (including >64 B multi-lane
lines and partial write-validate masks), all four write-miss policies,
flush on/off and chunk sizes down to 1 against every engine; the
hierarchy, ladder and batch chunked entry points get the same treatment.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import rdsim, vecsim
from repro.cache.chunked import build_prelude, open_cursor, subtract_stats
from repro.cache.config import CacheConfig
from repro.cache.fastsim import (
    simulate_trace,
    simulate_trace_batch,
    simulate_trace_batch_chunked,
    simulate_trace_chunked,
)
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.cache.stats import CacheStats
from repro.common.errors import ConfigurationError
from repro.trace.events import READ, WRITE
from repro.trace.trace import Trace

LINE_SIZES = (4, 8, 16, 32, 64, 128)

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
def configs(draw) -> CacheConfig:
    line_size = draw(st.sampled_from(LINE_SIZES))
    size = line_size * (2 ** draw(st.integers(min_value=0, max_value=5)))
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
def traces(draw, max_refs=80) -> Trace:
    refs = draw(
        st.lists(
            st.tuples(
                st.sampled_from((4, 8)),
                st.integers(min_value=0, max_value=1023),
                st.sampled_from((READ, WRITE)),
            ),
            min_size=1,
            max_size=max_refs,
        )
    )
    addresses = np.array([size * slot for size, slot, _ in refs], dtype=np.int64)
    sizes = np.array([size for size, _, _ in refs], dtype=np.int32)
    kinds = np.array([kind for _, _, kind in refs], dtype=np.int8)
    icounts = np.ones(len(refs), dtype=np.int32)
    return Trace.from_arrays(addresses, sizes, kinds, icounts, name="gen")


def split(trace: Trace, chunk_refs: int):
    for start in range(0, len(trace), chunk_refs):
        yield trace[start : start + chunk_refs]


def stats_dict(stats) -> dict:
    payload = stats.to_dict()
    payload.pop("extra", None)
    return payload


class TestChunkedCursors:
    @given(
        trace=traces(),
        config=configs(),
        chunk_refs=st.sampled_from((1, 7, 1000)),
        flush=st.booleans(),
    )
    @settings(**COMMON_SETTINGS)
    def test_every_backend_matches_one_shot(self, trace, config, chunk_refs, flush):
        expected = stats_dict(simulate_trace(trace, config, flush=flush))
        for backend in ("auto", "reference"):
            got = simulate_trace_chunked(
                split(trace, chunk_refs), config, flush=flush, backend=backend
            )
            assert stats_dict(got) == expected, (backend, chunk_refs)

    @given(trace=traces(), config=configs())
    @settings(**COMMON_SETTINGS)
    def test_prelude_recreates_exported_state(self, trace, config):
        """The resume invariant itself: simulating the rebuilt prelude
        cold lands on exactly the exported end-of-run state."""
        _, state = vecsim.simulate_with_state(trace, config, flush=False)
        if state.resident_count == 0:
            return
        prelude = build_prelude(state, config)
        _, replayed = vecsim.simulate_with_state(prelude, config, flush=False)
        original = {
            int(index): (int(tag), valid, dirty)
            for index, tag, valid, dirty in zip(
                state.set_indices, state.tags, state.valid, state.dirty
            )
        }
        rebuilt = {
            int(index): (int(tag), valid, dirty)
            for index, tag, valid, dirty in zip(
                replayed.set_indices, replayed.tags, replayed.valid, replayed.dirty
            )
        }
        assert rebuilt == original

    def test_subtract_stats_inverts_merge(self):
        a = CacheStats(reads=5, writes=3, fetch_bytes=64, line_size=16)
        b = CacheStats(reads=2, writes=1, fetch_bytes=16, line_size=16)
        merged = a.merge(b)
        assert stats_dict(subtract_stats(merged, b)) == stats_dict(a)

    def test_empty_and_interleaved_empty_chunks(self):
        trace = Trace.from_arrays(
            np.array([0, 16, 0], dtype=np.int64),
            np.array([4, 4, 4], dtype=np.int32),
            np.array([WRITE, READ, WRITE], dtype=np.int8),
            np.array([1, 1, 1], dtype=np.int32),
            name="tiny",
        )
        config = CacheConfig(size=64, line_size=16)
        empty = trace[0:0]
        expected = stats_dict(simulate_trace(trace, config))
        got = simulate_trace_chunked(
            [empty, trace[:1], empty, empty, trace[1:], empty], config
        )
        assert stats_dict(got) == expected
        cold = simulate_trace_chunked([], config)
        assert cold.accesses == 0 and cold.line_size == 16

    def test_unsupported_config_routes_to_reference(self):
        config = CacheConfig(size=256, line_size=16, associativity=2)
        assert type(open_cursor(config)).__name__ == "ReferenceCursor"
        with pytest.raises(ConfigurationError):
            open_cursor(config, backend="vector")

    @given(trace=traces(max_refs=40), config=configs())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_single_chunk_degenerates_to_one_shot(self, trace, config):
        expected = stats_dict(simulate_trace(trace, config))
        got = simulate_trace_chunked([trace], config)
        assert stats_dict(got) == expected


class TestChunkedGridEntryPoints:
    def _trace(self, count=5000, seed=11):
        rng = np.random.RandomState(seed)
        sizes = np.where(rng.rand(count) < 0.5, 4, 8).astype(np.int32)
        addresses = rng.randint(0, 1024, size=count).astype(np.int64) * 8
        kinds = (rng.rand(count) < 0.4).astype(np.int8)
        icounts = rng.randint(1, 4, size=count).astype(np.int32)
        return Trace.from_arrays(addresses, sizes, kinds, icounts, name="grid")

    @pytest.mark.parametrize("flush", [True, False])
    def test_batch_chunked_matches_batch(self, flush):
        trace = self._trace()
        configs = [
            CacheConfig(size=size, line_size=16) for size in (256, 1024, 4096)
        ] + [
            CacheConfig(
                size=1024,
                line_size=32,
                write_hit=WriteHitPolicy.WRITE_THROUGH,
                write_miss=WriteMissPolicy.WRITE_AROUND,
            )
        ]
        expected = simulate_trace_batch(trace, configs, flush=flush)
        got = simulate_trace_batch_chunked(split(trace, 700), configs, flush=flush)
        for one, two in zip(expected, got):
            assert stats_dict(two) == stats_dict(one)

    def test_ladder_chunked_matches_ladder(self):
        trace = self._trace()
        configs = [
            CacheConfig(size=size, line_size=16) for size in (512, 1024, 2048, 4096)
        ]
        expected = rdsim.simulate_ladder(trace, configs)
        got = rdsim.simulate_ladder_chunked(split(trace, 900), configs)
        for one, two in zip(expected, got):
            assert stats_dict(two) == stats_dict(one)

    @pytest.mark.parametrize("flush", [True, False])
    def test_hierarchy_chunked_matches_system(self, flush):
        from repro.hierarchy.system import (
            HierarchyConfig,
            LevelConfig,
            simulate_system,
            simulate_system_chunked,
        )

        trace = self._trace()
        config = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=512, line_size=16)),
                LevelConfig(cache=CacheConfig(size=8192, line_size=32)),
            )
        )
        expected = simulate_system(trace, config, flush=flush)
        got = simulate_system_chunked(split(trace, 650), config, flush=flush)
        assert got.to_dict() == expected.to_dict()

    def test_hierarchy_chunked_bare_l1(self):
        from repro.hierarchy.hiersim import simulate_hierarchy_chunked
        from repro.hierarchy.system import simulate_system

        trace = self._trace(count=2000)
        config = CacheConfig(size=1024, line_size=16)
        expected = simulate_system(trace, config)
        got = simulate_hierarchy_chunked(split(trace, 300), config)
        assert got.to_dict() == expected.to_dict()
