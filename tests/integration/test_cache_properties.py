"""Cross-cutting cache properties, checked with hypothesis.

These are the classic structural theorems a correct simulator must obey:

- LRU inclusion: a fully-associative LRU cache's contents are a superset
  of any smaller fully-associative LRU cache's contents, so hits are
  monotone in capacity (Mattson stack property).
- The Fig. 17 partial order of fetch traffic holds on *arbitrary*
  traces, not just the corpus.
- Write-cache merging is monotone in the entry count (LRU stack
  property at 8 B granularity).
- Under write-through, write-through traffic does not depend on the
  write-miss policy, in every engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.write_cache import WriteCache
from repro.cache import rdsim, vecsim
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.core.metrics import partial_order_violations
from repro.trace.events import READ, WRITE, MemRef
from repro.trace.trace import Trace


@st.composite
def small_trace(draw, max_refs=120, slots=48):
    count = draw(st.integers(min_value=1, max_value=max_refs))
    refs = []
    for _ in range(count):
        kind = draw(st.sampled_from([READ, WRITE]))
        size = draw(st.sampled_from([4, 8]))
        slot = draw(st.integers(min_value=0, max_value=slots - 1))
        refs.append(MemRef(slot * size, size, kind))
    return Trace.from_refs(refs)


def fully_associative(capacity_lines: int) -> CacheConfig:
    size = capacity_lines * 16
    return CacheConfig(size=size, line_size=16, associativity=capacity_lines)


class TestLruInclusion:
    @given(trace=small_trace())
    @settings(max_examples=50, deadline=None)
    def test_hits_monotone_in_capacity(self, trace):
        small = Cache(fully_associative(2))
        large = Cache(fully_associative(8))
        small.run(trace)
        large.run(trace)
        assert large.stats.read_hits + large.stats.write_hits >= (
            small.stats.read_hits + small.stats.write_hits
        )
        assert large.stats.fetches <= small.stats.fetches

    @given(trace=small_trace())
    @settings(max_examples=30, deadline=None)
    def test_contents_inclusion(self, trace):
        small = Cache(fully_associative(2))
        large = Cache(fully_associative(8))
        small.run(trace)
        large.run(trace)
        small_lines = {address for address, _ in small.resident_lines()}
        large_lines = {address for address, _ in large.resident_lines()}
        assert small_lines <= large_lines


class TestPartialOrderProperty:
    @given(trace=small_trace(max_refs=200, slots=64))
    @settings(max_examples=60, deadline=None)
    def test_fig17_on_random_traces(self, trace):
        stats_by_policy = {}
        for policy in WriteMissPolicy:
            config = CacheConfig(
                size=128,
                line_size=16,
                write_hit=WriteHitPolicy.WRITE_THROUGH,
                write_miss=policy,
            )
            stats_by_policy[policy] = simulate_trace(trace, config)
        assert partial_order_violations(stats_by_policy) == []


class TestWriteCacheMonotonicity:
    @given(trace=small_trace(max_refs=200, slots=64))
    @settings(max_examples=50, deadline=None)
    def test_merging_monotone_in_entries(self, trace):
        merged = [
            WriteCache(entries=entries).run_writes(trace).merged
            for entries in (1, 2, 4, 8)
        ]
        assert merged == sorted(merged)


class TestMissClassificationInvariant:
    @given(
        trace=small_trace(),
        size=st.sampled_from([64, 128, 256]),
        policy=st.sampled_from(list(WriteMissPolicy)),
    )
    @settings(max_examples=60, deadline=None)
    def test_consistency_everywhere(self, trace, size, policy):
        hit = (
            WriteHitPolicy.WRITE_THROUGH
            if policy in (WriteMissPolicy.WRITE_AROUND, WriteMissPolicy.WRITE_INVALIDATE)
            else WriteHitPolicy.WRITE_BACK
        )
        config = CacheConfig(size=size, line_size=16, write_hit=hit, write_miss=policy)
        stats = simulate_trace(trace, config)
        stats.validate_consistency()
        from repro.core.models import writeback_identity_holds

        if hit is WriteHitPolicy.WRITE_BACK:
            assert writeback_identity_holds(stats)


class TestWriteThroughTrafficInvariant:
    """Under write-through every store is sent on exactly once, whatever
    happens to the line, so ``write_throughs`` and ``write_through_bytes``
    are identical across all four write-miss policies — in the reference
    cache, in vecsim and in a size ladder."""

    @given(
        trace=small_trace(max_refs=160, slots=64),
        line_size=st.sampled_from([4, 8, 16, 32, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_across_write_miss_policies(self, trace, line_size):
        configs = [
            CacheConfig(
                size=line_size * lines,
                line_size=line_size,
                write_hit=WriteHitPolicy.WRITE_THROUGH,
                write_miss=policy,
            )
            for lines in (1, 4, 16)
            for policy in WriteMissPolicy
        ]
        ladder, info = rdsim.simulate_ladder_info(trace, configs)
        assert info.fallback_runs == 0
        engines = {
            "cache": [Cache(config).run(trace) for config in configs],
            "vecsim": vecsim.simulate_batch(trace, configs),
            "ladder": ladder,
        }
        for engine, results in engines.items():
            for size in {config.size for config in configs}:
                traffic = {
                    (stats.write_throughs, stats.write_through_bytes)
                    for config, stats in zip(configs, results)
                    if config.size == size
                }
                assert len(traffic) == 1, (engine, size, traffic)
