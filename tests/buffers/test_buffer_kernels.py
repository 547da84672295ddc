"""Differential tests: the bulk buffer kernels against their oracles.

:func:`~repro.buffers.write_cache.run_write_cache_grid` must equal
:meth:`WriteCache.run_writes` and
:func:`~repro.buffers.write_buffer.simulate_write_buffers` must equal
:meth:`CoalescingWriteBuffer.simulate`, counter for counter, on random
traces that mix loads and stores.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffers.write_buffer import WriteBufferConfig, simulate_write_buffers
from repro.buffers.write_cache import (
    LADDER_MAX_ENTRIES,
    WriteCache,
    WriteCacheConfig,
    run_write_cache_grid,
)
from repro.trace.events import READ, WRITE
from repro.trace.trace import Trace

COMMON_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A word address: mostly a hot set, sometimes one of many cold lines,
#: so both shallow and deep (past the ladder bound) reuse occur.
WORD = st.one_of(st.integers(0, 31), st.integers(0, 4095)).map(lambda word: word * 4)


@st.composite
def traces(draw):
    refs = draw(
        st.lists(
            st.tuples(WORD, st.sampled_from((READ, WRITE)), st.integers(0, 20)),
            max_size=400,
        )
    )
    addresses = [address for address, _, _ in refs]
    kinds = [kind for _, kind, _ in refs]
    icounts = [icount for _, _, icount in refs]
    return Trace.from_arrays(
        np.array(addresses, dtype=np.int64),
        np.full(len(refs), 4, dtype=np.int32),
        np.array(kinds, dtype=np.int8),
        np.array(icounts, dtype=np.int32),
    )


POWERS_4_TO_64 = st.sampled_from((4, 8, 16, 32, 64))


def stats_dicts(stats_list):
    return [stats.to_dict() for stats in stats_list]


class TestWriteCacheGrid:
    @settings(**COMMON_SETTINGS)
    @given(
        trace=traces(),
        configs=st.lists(
            st.builds(
                WriteCacheConfig,
                entries=st.integers(0, LADDER_MAX_ENTRIES + 16),
                line_size=POWERS_4_TO_64,
            ),
            min_size=1,
            max_size=6,
        ),
        flush=st.booleans(),
    )
    def test_matches_run_writes(self, trace, configs, flush):
        # The bound and one past it put both routes in every call.
        configs = configs + [
            WriteCacheConfig(entries=LADDER_MAX_ENTRIES, line_size=8),
            WriteCacheConfig(entries=LADDER_MAX_ENTRIES + 1, line_size=8),
        ]
        expected = [config.build().run_writes(trace, flush) for config in configs]
        got = run_write_cache_grid(trace, configs, flush=flush)
        assert stats_dicts(got) == stats_dicts(expected)

    def test_cyclic_stream_straddles_the_ladder_bound(self):
        # Cycling over bound + 1 lines misses every time at the bound
        # (LRU evicts the line needed next) and hits after the first
        # round one entry past it, which the oracle route serves.
        lines = LADDER_MAX_ENTRIES + 1
        addresses = [8 * (i % lines) for i in range(4 * lines)]
        trace = Trace.from_arrays(
            np.array(addresses, dtype=np.int64),
            np.full(len(addresses), 4, dtype=np.int32),
            np.full(len(addresses), WRITE, dtype=np.int8),
            np.ones(len(addresses), dtype=np.int32),
        )
        at_bound, past_bound = run_write_cache_grid(
            trace,
            [
                WriteCacheConfig(entries=LADDER_MAX_ENTRIES),
                WriteCacheConfig(entries=LADDER_MAX_ENTRIES + 1),
            ],
        )
        assert at_bound.merged == 0
        assert past_bound.merged == 3 * lines
        assert past_bound.flushed == lines

    def test_only_configs_past_the_bound_run_the_oracle(self, monkeypatch):
        calls = []
        real = WriteCache.run_writes

        def spy(self, trace, flush=True):
            calls.append(self.entries)
            return real(self, trace, flush=flush)

        monkeypatch.setattr(WriteCache, "run_writes", spy)
        trace = Trace.from_arrays(
            np.arange(0, 800, 4, dtype=np.int64),
            np.full(200, 4, dtype=np.int32),
            np.full(200, WRITE, dtype=np.int8),
            np.ones(200, dtype=np.int32),
        )
        entries = (0, 5, LADDER_MAX_ENTRIES, LADDER_MAX_ENTRIES + 1, 4096)
        run_write_cache_grid(trace, [WriteCacheConfig(entries=n) for n in entries])
        assert calls == [LADDER_MAX_ENTRIES + 1, 4096]


class TestWriteBufferGrid:
    @settings(**COMMON_SETTINGS)
    @given(
        trace=traces(),
        configs=st.lists(
            st.builds(
                WriteBufferConfig,
                entries=st.integers(1, 16),
                entry_size=POWERS_4_TO_64,
                retire_interval=st.integers(0, 64),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_matches_simulate(self, trace, configs):
        expected = [config.build().simulate(trace) for config in configs]
        got = simulate_write_buffers(trace, configs)
        assert stats_dicts(got) == stats_dicts(expected)
