"""Property-based differential suite: every engine agrees, always.

Hypothesis drives seeded random ``CacheConfig``/trace pairs — every
cache size and line size (including the >64 B multi-lane widths), all
four write-miss policies under both hit policies, sub-block write-backs,
varying valid granularities, flush on and off — and asserts the
reference simulator, the vectorised kernel, the batched kernel and the
ladder profiler produce bit-identical statistics.

A failing example shrinks to a :class:`DiffCase` whose ``repr`` is a
runnable reproduction: it rebuilds the exact trace via
``Trace.from_arrays`` and the exact config, so a counterexample pastes
straight into a regression test.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import rdsim
from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace, simulate_trace_batch
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.trace.events import READ, WRITE
from repro.trace.trace import Trace

#: Line widths under test; 128/256 exercise the multi-lane (>64 B) masks.
LINE_SIZES = (4, 8, 16, 32, 64, 128, 256)

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


@dataclass(frozen=True)
class DiffCase:
    """One shrunk differential case; ``repr`` is runnable reproduction code."""

    addresses: tuple
    sizes: tuple
    kinds: tuple
    icounts: tuple
    config: CacheConfig
    flush: bool

    @property
    def trace(self) -> Trace:
        return Trace.from_arrays(
            np.array(self.addresses, dtype=np.int64),
            np.array(self.sizes, dtype=np.int32),
            np.array(self.kinds, dtype=np.int8),
            np.array(self.icounts, dtype=np.int32),
            name="shrunk",
        )

    def __repr__(self) -> str:
        return (
            "Trace.from_arrays("
            f"np.array({list(self.addresses)}, dtype=np.int64), "
            f"np.array({list(self.sizes)}, dtype=np.int32), "
            f"np.array({list(self.kinds)}, dtype=np.int8), "
            f"np.array({list(self.icounts)}, dtype=np.int32), "
            "name='shrunk'); "
            f"CacheConfig(size={self.config.size}, "
            f"line_size={self.config.line_size}, "
            f"write_hit=WriteHitPolicy('{self.config.write_hit.value}'), "
            f"write_miss=WriteMissPolicy('{self.config.write_miss.value}'), "
            f"valid_granularity={self.config.valid_granularity}, "
            f"subblock_dirty_writeback={self.config.subblock_dirty_writeback}); "
            f"flush={self.flush}"
        )


@st.composite
def configs(draw) -> CacheConfig:
    """Direct-mapped configs over the full policy and geometry space."""
    line_size = draw(st.sampled_from(LINE_SIZES))
    # 1..64 lines keeps caches tiny relative to the address space below,
    # so misses, conflicts and write-backs actually happen.
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
def references(draw):
    """One aligned reference: (address, size, kind, icount)."""
    size = draw(st.sampled_from((4, 8)))
    # Slots rather than raw addresses guarantee natural alignment; the
    # small slot range collides across lines, sets and tags.
    address = size * draw(st.integers(min_value=0, max_value=4095))
    kind = draw(st.sampled_from((READ, WRITE)))
    icount = draw(st.integers(min_value=1, max_value=3))
    return address, size, kind, icount


@st.composite
def cases(draw) -> DiffCase:
    refs = draw(st.lists(references(), min_size=1, max_size=80))
    addresses, sizes, kinds, icounts = zip(*refs)
    return DiffCase(
        addresses=addresses,
        sizes=sizes,
        kinds=kinds,
        icounts=icounts,
        config=draw(configs()),
        flush=draw(st.booleans()),
    )


COMMON_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_all_engines(trace: Trace, config: CacheConfig, flush: bool):
    """Stats dict per engine, keyed by engine name."""
    return {
        "reference": simulate_trace(trace, config, flush=flush, backend="reference"),
        "vector": simulate_trace(trace, config, flush=flush, backend="vector"),
        "batch": simulate_trace_batch(trace, [config], flush=flush)[0],
        # A one-config grid is a one-level ladder: the profiler still
        # runs its full machinery (or falls back to vecsim for the
        # shapes it declines) and must agree with everything else.
        "ladder": rdsim.simulate_ladder(trace, [config], flush=flush)[0],
    }


@given(case=cases())
@settings(**COMMON_SETTINGS)
def test_reference_vector_batch_agree(case):
    engines = run_all_engines(case.trace, case.config, case.flush)
    expected = engines.pop("reference").to_dict()
    for engine, stats in engines.items():
        assert stats.to_dict() == expected, engine


@given(
    grid_cases=st.lists(cases(), min_size=2, max_size=4),
    data=st.data(),
)
@settings(**COMMON_SETTINGS)
def test_batched_grid_matches_per_run_reference(grid_cases, data):
    # One trace, several configs: the batched kernel shares trace passes
    # across the whole grid yet must match each per-run reference.
    base = grid_cases[0]
    grid = [case.config for case in grid_cases]
    flush = data.draw(st.booleans())
    batched = simulate_trace_batch(base.trace, grid, flush=flush)
    for config, stats in zip(grid, batched):
        expected = simulate_trace(base.trace, config, flush=flush, backend="reference")
        assert stats.to_dict() == expected.to_dict(), config.describe()


@given(case=cases(), data=st.data())
@settings(**COMMON_SETTINGS)
def test_size_ladder_profile_matches_per_run_reference(case, data):
    # The profiler's home turf: one trace, one line size, a whole ladder
    # of cache sizes collapsed through a single profiling pass.  Every
    # rung must match the per-run reference simulator.
    line_size = case.config.line_size
    levels = data.draw(st.integers(min_value=2, max_value=7))
    ladder = [
        CacheConfig(
            size=line_size * (1 << level),
            line_size=line_size,
            write_hit=case.config.write_hit,
            write_miss=case.config.write_miss,
            valid_granularity=case.config.valid_granularity,
            subblock_dirty_writeback=case.config.subblock_dirty_writeback,
        )
        for level in range(levels)
    ]
    profiled = rdsim.simulate_ladder(case.trace, ladder, flush=case.flush)
    for config, stats in zip(ladder, profiled):
        expected = simulate_trace(
            case.trace, config, flush=case.flush, backend="reference"
        )
        assert stats.to_dict() == expected.to_dict(), config.describe()


@given(case=cases())
@settings(**COMMON_SETTINGS)
def test_flush_only_adds_flush_counters(case):
    # flush=False must be a strict subset: identical counters except the
    # flush-stop fields, which stay zero.
    flushed = simulate_trace(case.trace, case.config, flush=True, backend="vector")
    unflushed = simulate_trace(case.trace, case.config, flush=False, backend="vector")
    flushed_dict = flushed.to_dict()
    unflushed_dict = unflushed.to_dict()
    for field, value in unflushed_dict.items():
        if "flush" in field:
            continue
        assert flushed_dict[field] == value, field


def test_diff_case_repr_reproduces():
    case = DiffCase(
        addresses=(0, 8, 16),
        sizes=(4, 4, 8),
        kinds=(READ, WRITE, WRITE),
        icounts=(1, 1, 2),
        config=CacheConfig(size=64, line_size=16),
        flush=True,
    )
    text = repr(case)
    assert "Trace.from_arrays" in text
    namespace = {
        "Trace": Trace,
        "np": np,
        "CacheConfig": CacheConfig,
        "WriteHitPolicy": WriteHitPolicy,
        "WriteMissPolicy": WriteMissPolicy,
    }
    # The repr is three expressions glued with ';' — execute the first two
    # to prove they rebuild the trace and config.
    trace_expr, config_expr, _ = text.split("; ")
    rebuilt_trace = eval(trace_expr, namespace)
    rebuilt_config = eval(config_expr, namespace)
    assert rebuilt_trace.addresses == list(case.addresses)
    assert rebuilt_config == case.config
    stats = simulate_trace(rebuilt_trace, rebuilt_config, flush=case.flush)
    assert stats.to_dict() == simulate_trace(
        case.trace, case.config, flush=case.flush, backend="reference"
    ).to_dict()
