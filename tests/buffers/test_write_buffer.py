"""Unit tests for the coalescing write buffer timing model (Fig. 5)."""

import pytest

from repro.buffers.write_buffer import CoalescingWriteBuffer
from repro.common.errors import ConfigurationError
from repro.trace.events import READ, WRITE, MemRef
from repro.trace.trace import Trace


def writes(entries, spacing=1):
    """A trace of 4 B stores at the given addresses, ``spacing`` instructions apart."""
    return Trace.from_refs(
        [MemRef(address, 4, WRITE, icount=spacing) for address in entries]
    )


class TestConstruction:
    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            CoalescingWriteBuffer(entries=0)

    def test_rejects_negative_interval(self):
        with pytest.raises(ConfigurationError):
            CoalescingWriteBuffer(retire_interval=-1)

    def test_rejects_bad_entry_size(self):
        with pytest.raises(ConfigurationError):
            CoalescingWriteBuffer(entry_size=12)


class TestMerging:
    def test_same_line_merges_while_buffered(self):
        buffer = CoalescingWriteBuffer(entries=4, entry_size=16, retire_interval=100)
        stats = buffer.simulate(writes([0x100, 0x104, 0x108]))
        assert stats.inserted == 1
        assert stats.merged == 2
        assert stats.merge_fraction == pytest.approx(2 / 3)

    def test_different_lines_do_not_merge(self):
        buffer = CoalescingWriteBuffer(entries=4, entry_size=16, retire_interval=100)
        stats = buffer.simulate(writes([0x100, 0x110, 0x120]))
        assert stats.merged == 0
        assert stats.inserted == 3

    def test_no_merge_after_retirement(self):
        # Entry retires at t=2; the second write to the same line at t=4
        # must allocate afresh.
        buffer = CoalescingWriteBuffer(entries=4, entry_size=16, retire_interval=2)
        stats = buffer.simulate(writes([0x100, 0x100], spacing=4))
        assert stats.merged == 0
        assert stats.inserted == 2

    def test_interval_zero_never_merges_never_stalls(self):
        buffer = CoalescingWriteBuffer(entries=2, retire_interval=0)
        stats = buffer.simulate(writes([0x100] * 50))
        assert stats.merged == 0
        assert stats.stall_cycles == 0
        assert stats.retired == 50


class TestStalls:
    def test_full_buffer_stalls(self):
        # 1-entry buffer, retire every 10 cycles, two distinct lines
        # arriving 1 cycle apart: second write waits ~9 cycles.
        buffer = CoalescingWriteBuffer(entries=1, entry_size=16, retire_interval=10)
        stats = buffer.simulate(writes([0x100, 0x200]))
        assert stats.full_stalls == 1
        assert stats.stall_cycles == 9  # arrives t=2, retire at t=11
        assert stats.stall_cpi == pytest.approx(9 / 2)

    def test_fast_retirement_no_stalls(self):
        buffer = CoalescingWriteBuffer(entries=8, entry_size=16, retire_interval=1)
        stats = buffer.simulate(writes(list(range(0, 64 * 16, 16)), spacing=2))
        assert stats.stall_cycles == 0

    def test_reads_advance_time_without_interacting(self):
        trace = Trace.from_refs(
            [
                MemRef(0x100, 4, WRITE),
                MemRef(0x500, 4, READ, icount=50),
                MemRef(0x100, 4, WRITE),
            ]
        )
        buffer = CoalescingWriteBuffer(entries=4, entry_size=16, retire_interval=10)
        stats = buffer.simulate(trace)
        assert stats.writes == 2
        assert stats.merged == 0  # entry retired during the long read gap
        assert stats.instructions == trace.instruction_count

    def test_reads_do_not_touch_buffer(self):
        trace = Trace.from_refs([MemRef(0x100, 4, WRITE), MemRef(0x100, 4, READ)])
        buffer = CoalescingWriteBuffer(retire_interval=100, read_policy="ignore")
        stats = buffer.simulate(trace)
        assert stats.read_matches == 0
        assert stats.read_stall_cycles == 0


class TestPaperTension:
    """Fig. 5's core finding: merging requires stalling."""

    def test_merge_rate_monotone_in_interval(self, small_corpus):
        trace = small_corpus["ccom"][:20000]
        fractions = []
        for interval in (1, 8, 32):
            stats = CoalescingWriteBuffer(retire_interval=interval).simulate(trace)
            fractions.append(stats.merge_fraction)
        assert fractions[0] <= fractions[1] <= fractions[2]

    def test_high_merging_implies_high_stall(self, small_corpus):
        trace = small_corpus["ccom"][:20000]
        fast = CoalescingWriteBuffer(retire_interval=2).simulate(trace)
        slow = CoalescingWriteBuffer(retire_interval=40).simulate(trace)
        assert slow.merge_fraction > fast.merge_fraction
        assert slow.stall_cpi > max(0.5, 10 * fast.stall_cpi)
