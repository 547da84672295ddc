"""Unit tests for repro.trace.trace."""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.trace.events import READ, WRITE, MemRef
from repro.trace.trace import Trace


def build(refs):
    return Trace.from_refs(refs, name="t")


class TestConstruction:
    def test_from_refs_round_trip(self, tiny_trace):
        refs = list(tiny_trace)
        rebuilt = Trace.from_refs(refs)
        assert rebuilt.addresses == tiny_trace.addresses
        assert rebuilt.kinds == tiny_trace.kinds
        assert rebuilt.icounts == tiny_trace.icounts

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SimulationError):
            Trace([1], [], [], [])

    def test_repr_mentions_counts(self, tiny_trace):
        text = repr(tiny_trace)
        assert "reads=2" in text and "writes=3" in text


class TestAccessors:
    def test_len_and_counts(self, tiny_trace):
        assert len(tiny_trace) == 5
        assert tiny_trace.read_count == 2
        assert tiny_trace.write_count == 3

    def test_instruction_count(self, tiny_trace):
        assert tiny_trace.instruction_count == 1 + 1 + 3 + 2 + 1

    def test_byte_count(self, tiny_trace):
        assert tiny_trace.byte_count == 4 + 4 + 8 + 4 + 4

    def test_getitem_scalar(self, tiny_trace):
        ref = tiny_trace[2]
        assert ref == MemRef(0x1008, 8, WRITE, icount=3)

    def test_getitem_slice(self, tiny_trace):
        sub = tiny_trace[1:3]
        assert isinstance(sub, Trace)
        assert len(sub) == 2
        assert sub[0].address == 0x1004

    def test_iteration_yields_memrefs(self, tiny_trace):
        for ref in tiny_trace:
            assert isinstance(ref, MemRef)


class TestTransforms:
    def test_writes_only_preserves_instructions(self, tiny_trace):
        writes = tiny_trace.writes_only()
        assert writes.write_count == tiny_trace.write_count
        assert writes.read_count == 0
        # The trailing write absorbs every preceding read's icount.
        assert writes.instruction_count == tiny_trace.instruction_count

    def test_writes_only_order(self, tiny_trace):
        writes = tiny_trace.writes_only()
        assert writes.addresses == [0x1004, 0x1008, 0x1000]

    def test_writes_only_trailing_loads_fold_backwards(self):
        # Loads after the last store must fold their icounts into that
        # store, not vanish: instruction totals are conserved.
        trace = build(
            [
                MemRef(0x0, 4, WRITE, icount=2),
                MemRef(0x4, 4, READ, icount=3),
                MemRef(0x8, 4, WRITE, icount=1),
                MemRef(0xC, 4, READ, icount=5),
                MemRef(0x10, 4, READ, icount=7),
            ]
        )
        writes = trace.writes_only()
        assert writes.icounts == [2, 3 + 1 + 5 + 7]
        assert writes.instruction_count == trace.instruction_count

    def test_writes_only_no_stores_is_empty(self):
        trace = build([MemRef(0x0, 4, READ, icount=4)])
        writes = trace.writes_only()
        assert len(writes) == 0
        assert writes.instruction_count == 0

    def test_concat(self, tiny_trace):
        double = tiny_trace.concat(tiny_trace)
        assert len(double) == 2 * len(tiny_trace)
        assert double.instruction_count == 2 * tiny_trace.instruction_count


class TestFootprint:
    def test_touched_lines_simple(self):
        trace = build([MemRef(0, 4, READ), MemRef(4, 4, READ), MemRef(16, 4, READ)])
        assert trace.touched_lines(16) == 2
        assert trace.touched_lines(4) == 3

    def test_touched_lines_straddle(self):
        # An 8 B access straddles two 4 B lines.
        trace = build([MemRef(8, 8, WRITE)])
        assert trace.touched_lines(4) == 2
        assert trace.touched_lines(8) == 1

    def test_address_span(self):
        trace = build([MemRef(0x100, 4, READ), MemRef(0x200, 8, READ)])
        assert trace.address_span() == 0x200 + 8 - 0x100

    def test_empty_span(self):
        assert build([]).address_span() == 0

    def test_span_counts_wide_reference_below_the_top(self):
        # The widest reference is not the highest one: the span must end
        # one past the highest touched *byte*, not max(addr) + max(size).
        trace = build([MemRef(0x100, 8, READ), MemRef(0x200, 4, READ)])
        assert trace.address_span() == 0x200 + 4 - 0x100

    def test_span_extends_past_highest_address(self):
        # An 8 B access at the top address reaches past a later 4 B one.
        trace = build([MemRef(0x208, 8, READ), MemRef(0x200, 4, READ)])
        assert trace.address_span() == 0x208 + 8 - 0x200


class TestArrayViews:
    def test_array_properties_match_lists(self, tiny_trace):
        assert tiny_trace.address_array.tolist() == tiny_trace.addresses
        assert tiny_trace.size_array.tolist() == tiny_trace.sizes
        assert tiny_trace.kind_array.tolist() == tiny_trace.kinds
        assert tiny_trace.icount_array.tolist() == tiny_trace.icounts

    def test_arrays_are_read_only(self, tiny_trace):
        for array in (
            tiny_trace.address_array,
            tiny_trace.size_array,
            tiny_trace.kind_array,
            tiny_trace.icount_array,
        ):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_from_arrays_zero_copy(self):
        addresses = np.array([0, 8], dtype=np.int64)
        trace = Trace.from_arrays(
            addresses,
            np.array([4, 4], dtype=np.int32),
            np.array([READ, WRITE], dtype=np.int8),
            np.array([1, 2], dtype=np.int32),
            name="arr",
        )
        assert trace.address_array is addresses
        assert trace.addresses == [0, 8]

    def test_non_integer_components_rejected(self):
        with pytest.raises(SimulationError):
            Trace(["x"], [4], [0], [1])
