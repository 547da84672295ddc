"""Golden-stats pin: every engine must reproduce these exact counters.

The differential suites compare engines against each other, which cannot
catch a semantics change that shifts *all* of them in lockstep.  This
test pins the literal ``CacheStats`` dict for one (trace, config) pair —
``ccom`` at scale 0.05 through the default 1 KB/16 B write-back
fetch-on-write cache — so any stat drift fails loudly, without relying
on the result store.  If a change makes this fail on purpose, the
simulator's outputs have changed: ``SIMULATOR_VERSION`` must be bumped
and this dict regenerated in the same commit.

A second pin covers the vectorized hierarchy path: the same golden L1
stacked over a 4 KB L2, run level-by-level through
:func:`repro.hierarchy.hiersim.simulate_hierarchy`.  Level 0 of the
nested pin *is* ``GOLDEN_STATS`` (boundary invariance: what sits below
cannot change the L1), and the rest pins the materialized L2 stream and
both derived boundary meters.  Regenerate alongside ``GOLDEN_STATS``
(same trace, ``simulate_hierarchy(trace, GOLDEN_HIERARCHY)``, print
``stats.to_dict()``); a deliberate break bumps ``SYSTEM_ENGINE_VERSION``.
"""

import pytest

from repro.cache import rdsim
from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace, simulate_trace_batch
from repro.hierarchy.hiersim import simulate_hierarchy
from repro.hierarchy.system import HierarchyConfig, LevelConfig
from repro.trace.corpus import load

GOLDEN_WORKLOAD = ("ccom", 0.05, 1991)  # (name, scale, seed)
GOLDEN_CONFIG = CacheConfig(size=1024, line_size=16)
GOLDEN_TRACE_LENGTH = 11280

GOLDEN_STATS = {
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


GOLDEN_HIERARCHY = HierarchyConfig(
    levels=(
        LevelConfig(cache=GOLDEN_CONFIG),
        LevelConfig(cache=CacheConfig(size=4096, line_size=16)),
    )
)

#: The golden L1's miss stream through a 4 KB L2.  ``levels[0]`` reuses
#: ``GOLDEN_STATS`` verbatim — nesting must not perturb the L1.
GOLDEN_SYSTEM_STATS = {
    "levels": [
        {"cache": GOLDEN_STATS},
        {
            "cache": {
                "reads": 3853,
                "writes": 1808,
                "read_line_accesses": 3853,
                "write_line_accesses": 1808,
                "read_hits": 566,
                "read_misses": 3287,
                "read_partial_misses": 0,
                "write_hits": 1808,
                "write_misses": 0,
                "writes_to_dirty_lines": 835,
                "fetches": 3287,
                "fetch_bytes": 52592,
                "fetches_for_reads": 3287,
                "fetches_for_partial_reads": 0,
                "fetches_for_writes": 0,
                "writebacks": 886,
                "writeback_bytes": 14176,
                "writeback_dirty_bytes": 11840,
                "write_throughs": 0,
                "write_through_bytes": 0,
                "victims": 3031,
                "dirty_victims": 886,
                "dirty_victim_dirty_bytes": 11840,
                "validate_allocations": 0,
                "invalidations": 0,
                "flushed_lines": 256,
                "flushed_dirty_lines": 87,
                "flushed_dirty_bytes": 1240,
                "flush_writeback_bytes": 1392,
                "instructions": 0,
                "line_size": 16,
                "extra": {},
            }
        },
    ],
    "boundaries": [
        {
            "fetches": 3853,
            "fetch_bytes": 61648,
            "writebacks": 1046,
            "writeback_bytes": 16736,
            "write_throughs": 0,
            "write_through_bytes": 0,
        },
        {
            "fetches": 3287,
            "fetch_bytes": 52592,
            "writebacks": 973,
            "writeback_bytes": 15568,
            "write_throughs": 0,
            "write_through_bytes": 0,
        },
    ],
}


@pytest.fixture(scope="module")
def golden_trace():
    name, scale, seed = GOLDEN_WORKLOAD
    trace = load(name, scale=scale, seed=seed)
    assert len(trace) == GOLDEN_TRACE_LENGTH, "workload generator drifted"
    return trace


@pytest.mark.parametrize("backend", ["reference", "vector"])
def test_every_engine_matches_golden(golden_trace, backend):
    stats = simulate_trace(golden_trace, GOLDEN_CONFIG, flush=True, backend=backend)
    assert stats.to_dict() == GOLDEN_STATS, backend


def test_batched_kernel_matches_golden(golden_trace):
    (stats,) = simulate_trace_batch(golden_trace, [GOLDEN_CONFIG], flush=True)
    assert stats.to_dict() == GOLDEN_STATS


def test_ladder_profiler_matches_golden(golden_trace):
    (stats,) = rdsim.simulate_ladder(golden_trace, [GOLDEN_CONFIG], flush=True)
    assert stats.to_dict() == GOLDEN_STATS


@pytest.mark.parametrize("backend", ["auto", "vector", "reference"])
def test_nested_vectorized_path_matches_golden(golden_trace, backend):
    # Every hierarchy route — level-by-level vectorized and fully
    # composed — must reproduce the nested pin bit-for-bit.
    stats = simulate_hierarchy(
        golden_trace, GOLDEN_HIERARCHY, flush=True, backend=backend
    )
    assert stats.to_dict() == GOLDEN_SYSTEM_STATS, backend


def test_profiled_size_ladder_contains_golden(golden_trace):
    # The golden config embedded in a full size ladder: the profiler's
    # shared pass must reproduce the pinned row exactly, and batch
    # dispatch must route the ladder through it by default.
    ladder = [
        CacheConfig(size=1024 << level, line_size=16) for level in range(4)
    ]
    stats, info = rdsim.simulate_ladder_info(golden_trace, ladder, flush=True)
    assert info.profiled_runs == len(ladder) and info.profile_passes == 1
    assert stats[0].to_dict() == GOLDEN_STATS
    dispatched = simulate_trace_batch(golden_trace, ladder, flush=True)
    assert dispatched[0].to_dict() == GOLDEN_STATS
