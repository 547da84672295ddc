"""The vectorised kernel must be bit-identical to the reference Cache.

The differential sweeps here are the contract that lets ``vecsim`` share
``SIMULATOR_VERSION`` with the reference simulator: every statistic, for
every policy combination the kernel claims to support, across random
traces and real workload prefixes.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import vecsim
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.trace.events import READ, WRITE, MemRef
from repro.trace.trace import Trace

COMBOS = [
    (WriteHitPolicy.WRITE_BACK, WriteMissPolicy.FETCH_ON_WRITE),
    (WriteHitPolicy.WRITE_BACK, WriteMissPolicy.WRITE_VALIDATE),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.FETCH_ON_WRITE),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_VALIDATE),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_AROUND),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_INVALIDATE),
]


def reference_stats(trace, config, flush=True):
    cache = Cache(config)
    cache.run(trace)
    if flush:
        cache.flush()
    return cache.stats


def assert_stats_equal(a, b, context=""):
    left = dataclasses.asdict(a)
    right = dataclasses.asdict(b)
    left.pop("extra")
    right.pop("extra")
    diffs = {key: (left[key], right[key]) for key in left if left[key] != right[key]}
    assert not diffs, f"{context}: {diffs}"


def seeded_trace(seed, count, addr_bits=12, write_fraction=0.4):
    """A deterministic random trace mixing sizes, kinds and icounts."""
    rng = random.Random(seed)
    addresses, sizes, kinds, icounts = [], [], [], []
    for _ in range(count):
        size = rng.choice([1, 2, 4, 4, 8])
        addresses.append(rng.randrange(1 << addr_bits) & ~(size - 1))
        sizes.append(size)
        kinds.append(WRITE if rng.random() < write_fraction else READ)
        icounts.append(rng.randrange(1, 5))
    return Trace(addresses, sizes, kinds, icounts, name=f"seeded-{seed}")


def vec_stats(trace, config, flush=True):
    assert vecsim.supports(config)
    return vecsim.simulate_direct_mapped(trace, config, flush)


class TestDifferentialGrid:
    """Randomized sweep: vecsim == reference, stat for stat."""

    @pytest.mark.parametrize("hit,miss", COMBOS)
    @pytest.mark.parametrize("line_size", [4, 16, 64])
    def test_policy_grid(self, hit, miss, line_size):
        for seed, count in ((1, 0), (2, 1), (3, 37), (4, 700)):
            trace = seeded_trace(seed, count)
            for subblock in (False, True):
                for flush in (True, False):
                    config = CacheConfig(
                        size=512,
                        line_size=line_size,
                        write_hit=hit,
                        write_miss=miss,
                        subblock_dirty_writeback=subblock,
                    )
                    context = f"{hit}/{miss} line={line_size} sub={subblock} " \
                              f"flush={flush} seed={seed}"
                    reference = reference_stats(trace, config, flush)
                    assert_stats_equal(
                        vec_stats(trace, config, flush), reference, context
                    )

    @pytest.mark.parametrize("granularity", [1, 4, 8])
    def test_write_validate_granularity(self, granularity):
        trace = seeded_trace(11, 500)
        for hit in (WriteHitPolicy.WRITE_BACK, WriteHitPolicy.WRITE_THROUGH):
            config = CacheConfig(
                size=512,
                line_size=16,
                write_hit=hit,
                write_miss=WriteMissPolicy.WRITE_VALIDATE,
                valid_granularity=granularity,
            )
            assert_stats_equal(
                vec_stats(trace, config),
                reference_stats(trace, config),
                f"granularity={granularity} hit={hit}",
            )

    def test_write_heavy_and_read_only_extremes(self):
        for fraction in (0.0, 1.0):
            trace = seeded_trace(21, 400, write_fraction=fraction)
            for hit, miss in COMBOS:
                config = CacheConfig(
                    size=256, line_size=8, write_hit=hit, write_miss=miss
                )
                assert_stats_equal(
                    vec_stats(trace, config),
                    reference_stats(trace, config),
                    f"writes={fraction} {miss}",
                )

    def test_wide_references_split_across_lines(self):
        # 8 B references over 4 B lines: every double splits in two.
        trace = seeded_trace(31, 400, addr_bits=10)
        for hit, miss in COMBOS:
            config = CacheConfig(size=128, line_size=4, write_hit=hit, write_miss=miss)
            assert_stats_equal(
                vec_stats(trace, config), reference_stats(trace, config), str(miss)
            )


class TestCorpusEquivalence:
    @pytest.mark.parametrize("hit,miss", COMBOS)
    def test_workload_prefixes(self, small_corpus, hit, miss):
        config = CacheConfig(size=4096, line_size=16, write_hit=hit, write_miss=miss)
        for name in ("ccom", "linpack", "met"):
            trace = small_corpus[name][:6000]
            assert_stats_equal(
                vec_stats(trace, config),
                reference_stats(trace, config),
                f"{name} {miss}",
            )

    def test_figure_grid_write_back(self, small_corpus):
        trace = small_corpus["yacc"][:6000]
        for size in (1024, 8192):
            for line_size in (4, 16, 32):
                config = CacheConfig(
                    size=size, line_size=line_size, subblock_dirty_writeback=True
                )
                assert_stats_equal(
                    vec_stats(trace, config),
                    reference_stats(trace, config),
                    f"size={size} line={line_size}",
                )


@st.composite
def random_trace(draw):
    count = draw(st.integers(min_value=1, max_value=120))
    refs = []
    for _ in range(count):
        kind = draw(st.sampled_from([READ, WRITE]))
        size = draw(st.sampled_from([4, 8]))
        slot = draw(st.integers(min_value=0, max_value=95))
        refs.append(MemRef(slot * size, size, kind))
    return Trace.from_refs(refs)


class TestPropertyEquivalence:
    @pytest.mark.parametrize("hit,miss", COMBOS)
    @given(trace=random_trace())
    @settings(max_examples=25, deadline=None)
    def test_random_traces(self, hit, miss, trace):
        config = CacheConfig(size=128, line_size=16, write_hit=hit, write_miss=miss)
        assert_stats_equal(vec_stats(trace, config), reference_stats(trace, config))


class TestSupports:
    def test_covers_paper_grid(self):
        for line_size in (4, 8, 16, 32, 64):
            assert vecsim.supports(CacheConfig(size=8192, line_size=line_size))

    def test_covers_wide_lines_with_multi_lane_masks(self):
        for line_size in (128, 256):
            assert vecsim.supports(CacheConfig(size=8192, line_size=line_size))

    def test_rejects_out_of_scope_configs(self):
        assert not vecsim.supports(CacheConfig(size=8192, line_size=16, associativity=2))
        assert not vecsim.supports(CacheConfig(size=8192, line_size=16, store_data=True))
        assert not vecsim.supports(
            CacheConfig(size=8192, line_size=16, subblock_fetch=True)
        )


class TestWideLines:
    """Lines past one uint64 lane: (n, lanes) byte masks, same semantics."""

    @pytest.mark.parametrize("hit,miss", COMBOS)
    @pytest.mark.parametrize("line_size", [128, 256])
    def test_policy_grid(self, hit, miss, line_size):
        trace = seeded_trace(51, 500)
        for subblock in (False, True):
            for flush in (True, False):
                config = CacheConfig(
                    size=4 * line_size,
                    line_size=line_size,
                    write_hit=hit,
                    write_miss=miss,
                    subblock_dirty_writeback=subblock,
                )
                assert_stats_equal(
                    vec_stats(trace, config, flush),
                    reference_stats(trace, config, flush),
                    f"{hit}/{miss} line={line_size} sub={subblock} flush={flush}",
                )

    @pytest.mark.parametrize("granularity", [1, 4, 8])
    def test_write_validate_granularity(self, granularity):
        trace = seeded_trace(52, 400)
        config = CacheConfig(
            size=1024,
            line_size=128,
            write_miss=WriteMissPolicy.WRITE_VALIDATE,
            valid_granularity=granularity,
        )
        assert_stats_equal(
            vec_stats(trace, config),
            reference_stats(trace, config),
            f"granularity={granularity}",
        )


class TestBackendDispatch:
    def test_auto_uses_vector_kernel(self, monkeypatch):
        calls = []
        original = vecsim.simulate_direct_mapped

        def spy(trace, config, flush):
            calls.append(config)
            return original(trace, config, flush)

        monkeypatch.setattr(vecsim, "simulate_direct_mapped", spy)
        simulate_trace(seeded_trace(41, 50), CacheConfig(size=256, line_size=16))
        assert len(calls) == 1

    def test_forced_backends_agree(self):
        trace = seeded_trace(42, 300)
        config = CacheConfig(size=512, line_size=16)
        results = {
            "auto": simulate_trace(trace, config),
            "vector": vec_stats(trace, config),
            "reference": reference_stats(trace, config),
        }
        for engine, stats in results.items():
            assert_stats_equal(stats, results["auto"], engine)

    def test_vector_handles_wide_lines(self):
        # 128 B lines exceed one uint64 lane; the multi-lane masks keep
        # them on the vector kernel, bit-identically.
        trace = seeded_trace(45, 50)
        config = CacheConfig(size=8192, line_size=128)
        assert_stats_equal(vec_stats(trace, config), reference_stats(trace, config))

    def test_pinned_backend_refuses_associative_configs(self, monkeypatch):
        # The vector kernel refuses associative configs, so the dispatch
        # sends them to the reference Cache without calling it.
        trace = seeded_trace(46, 50)
        config = CacheConfig(size=2048, line_size=16, associativity=4)
        assert not vecsim.supports(config)

        def refuse(*args):
            raise AssertionError("vector kernel called for an associative config")

        monkeypatch.setattr(vecsim, "simulate_direct_mapped", refuse)
        assert_stats_equal(simulate_trace(trace, config), reference_stats(trace, config))
