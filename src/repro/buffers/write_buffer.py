"""Coalescing write buffer timing model (Section 3.2, Fig. 5).

The paper's experiment: an 8-entry write buffer with cache-line-wide
(16 B) entries sits behind a write-through cache; the next level retires
one entry every ``n`` cycles.  Writes to an address already in the buffer
merge into the existing entry; writes arriving at a full buffer stall the
CPU until an entry retires.  Cache misses are ignored ("a fixed time
between writes [is] a reasonable model"), so time advances by the
instruction counts carried in the trace (base CPI of 1).

The headline tension this reproduces: significant merging requires entries
to linger, which requires the buffer to be nearly always full, which means
stores stall — so a simple coalescing buffer cannot both merge well and
stall little.

:func:`simulate_write_buffers` runs a grid of buffers over one trace with
O(1) work per store; :meth:`CoalescingWriteBuffer.simulate` is its
per-spec oracle.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Sequence

import numpy as np

from repro.common.bitops import log2_int
from repro.common.errors import ConfigurationError
from repro.common.serde import CounterSerde
from repro.common.units import check_count
from repro.trace.events import WRITE
from repro.trace.trace import Trace

#: Bump whenever a model change can alter the statistics produced for an
#: unchanged (trace, config) pair; the result store folds the kind's
#: engine version into every write-buffer content hash.
WRITE_BUFFER_ENGINE_VERSION = 1


#: How loads interact with buffered stores.  Only ``"ignore"`` is
#: modelled: loads bypass the buffer and only advance time (the paper's
#: Fig. 5 model — correct when read misses are checked against the
#: buffer elsewhere).  The field stays in the config so store keys keep
#: their ``reads=ignore`` suffix; any other value is refused.
READ_POLICIES = ("ignore",)


def _check_buffer(entries, entry_size, retire_interval, read_policy) -> None:
    check_count("entries", entries, minimum=1)
    check_count("entry_size", entry_size, minimum=1)
    log2_int(entry_size)
    check_count("retire_interval", retire_interval)
    if read_policy not in READ_POLICIES:
        raise ConfigurationError(
            f"read_policy must be one of {READ_POLICIES}, got {read_policy!r}"
        )


@dataclass(frozen=True)
class WriteBufferConfig(CounterSerde):
    """Immutable description of one coalescing write buffer experiment."""

    entries: int = 8
    entry_size: int = 16
    retire_interval: int = 5
    read_policy: str = "ignore"

    def __post_init__(self) -> None:
        _check_buffer(
            self.entries, self.entry_size, self.retire_interval, self.read_policy
        )

    def cache_key(self) -> str:
        """Stable canonical identity string (hashed by the result store)."""
        return (
            f"wb_entries={self.entries}:entry_size={self.entry_size}:"
            f"retire={self.retire_interval}:reads={self.read_policy}"
        )

    @property
    def name(self) -> str:
        """Short human-readable label for progress reporting."""
        return (
            f"WB{self.entries}x{self.entry_size}B/"
            f"retire{self.retire_interval}/{self.read_policy}"
        )

    def build(self) -> "CoalescingWriteBuffer":
        """Instantiate the buffer this config describes (validates here)."""
        return CoalescingWriteBuffer(
            entries=self.entries,
            entry_size=self.entry_size,
            retire_interval=self.retire_interval,
            read_policy=self.read_policy,
        )


@dataclass
class WriteBufferStats(CounterSerde):
    """Outcome of one write-buffer timing simulation."""

    kind: ClassVar[str] = "write_buffer"

    writes: int = 0  #: stores presented to the buffer
    merged: int = 0  #: stores absorbed into an existing entry
    inserted: int = 0  #: stores that allocated a new entry
    retired: int = 0  #: entries drained to the next level
    stall_cycles: int = 0  #: cycles the CPU waited on a full buffer
    instructions: int = 0  #: dynamic instructions of the driving trace
    full_stalls: int = 0  #: stores that encountered a full buffer
    # The read-policy counters of the retired ``forward``/``drain``
    # policies: always 0 under ``ignore``, kept so stored records (whose
    # decoder refuses unknown keys) still read.
    read_matches: int = 0
    read_forwards: int = 0
    read_drain_stalls: int = 0
    read_stall_cycles: int = 0

    @property
    def merge_fraction(self) -> float:
        """Fraction of all writes merged (Fig. 5 left axis)."""
        return self.merged / self.writes if self.writes else 0.0

    @property
    def stall_cpi(self) -> float:
        """Store stall cycles per instruction (Fig. 5 right axis)."""
        return self.stall_cycles / self.instructions if self.instructions else 0.0


class CoalescingWriteBuffer:
    """FIFO write buffer with coalescing and fixed-interval retirement."""

    def __init__(
        self,
        entries: int = 8,
        entry_size: int = 16,
        retire_interval: int = 5,
        read_policy: str = "ignore",
    ):
        _check_buffer(entries, entry_size, retire_interval, read_policy)
        self.entries = entries
        self.entry_size = entry_size
        self.retire_interval = retire_interval
        self.read_policy = read_policy
        self._offset_mask = entry_size - 1

    def simulate(self, trace: Trace) -> WriteBufferStats:
        """Run the stores of ``trace`` through the buffer.

        Reads in the trace advance time (their instructions execute) but do
        not otherwise interact with the buffer.
        """
        stats = WriteBufferStats()
        interval = self.retire_interval
        capacity = self.entries
        offset_mask = self._offset_mask

        # FIFO of line addresses; OrderedDict gives O(1) membership + order.
        buffer: "OrderedDict[int, None]" = OrderedDict()
        now = 0
        next_retire = None  # cycle of the next retirement, if any pending

        def retire_due(until: int) -> None:
            """Drain every retirement scheduled at or before ``until``."""
            nonlocal next_retire
            while buffer and next_retire is not None and next_retire <= until:
                buffer.popitem(last=False)
                stats.retired += 1
                next_retire = next_retire + interval if buffer else None

        for address, kind, icount in zip(trace.addresses, trace.kinds, trace.icounts):
            now += icount
            stats.instructions += icount
            if kind != WRITE:
                continue
            stats.writes += 1
            if interval == 0:
                # Degenerate case: entries retire instantly; nothing ever
                # coalesces and nothing ever stalls.
                stats.inserted += 1
                stats.retired += 1
                continue
            retire_due(now)
            line_address = address & ~offset_mask
            if line_address in buffer:
                stats.merged += 1
                continue
            if len(buffer) >= capacity:
                # Stall until the pending retirement frees an entry.
                stats.full_stalls += 1
                assert next_retire is not None
                stall = next_retire - now
                stats.stall_cycles += stall
                now = next_retire
                retire_due(now)
            buffer[line_address] = None
            stats.inserted += 1
            if next_retire is None:
                next_retire = now + interval
        return stats


def simulate_write_buffers(
    trace: Trace, configs: Sequence[WriteBufferConfig]
) -> List[WriteBufferStats]:
    """Write-buffer runs over ``trace``, one stats per config.

    Equal, counter for counter, to ``config.build().simulate(trace)`` for
    each config, with O(1) work per store and none per load.  A load only
    advances time, so a store's arrival is the running instruction count
    at it (shared by every config) plus the stall cycles the config has
    accumulated so far.
    """
    stores = trace.kind_array == WRITE
    elapsed = np.cumsum(trace.icount_array, dtype=np.int64)
    arrivals = elapsed[stores].tolist()
    instructions = int(elapsed[-1]) if len(elapsed) else 0
    store_addresses = trace.address_array[stores]
    lines_by_size: Dict[int, List[int]] = {}
    results = []
    for config in configs:
        if config.retire_interval == 0:
            # Entries retire instantly: nothing merges, nothing stalls.
            writes = len(arrivals)
            results.append(
                WriteBufferStats(
                    writes=writes,
                    inserted=writes,
                    retired=writes,
                    instructions=instructions,
                )
            )
            continue
        if config.entry_size not in lines_by_size:
            _, line_ids = np.unique(
                store_addresses & ~(config.entry_size - 1), return_inverse=True
            )
            lines_by_size[config.entry_size] = line_ids.tolist()
        stats = _drain_stores(
            lines_by_size[config.entry_size],
            arrivals,
            config.entries,
            config.retire_interval,
        )
        stats.instructions = instructions
        results.append(stats)
    return results


def _drain_stores(lines, arrivals, capacity: int, interval: int) -> WriteBufferStats:
    """One buffer's pass over its stores (``interval`` > 0).

    ``lines`` holds each store's line as a dense id (0 up to the number
    of distinct lines).  The FIFO is implicit: the i-th entry inserted
    carries sequence number i, and entries retire in insertion order, so
    after ``retired`` retirements a line is buffered iff its latest
    sequence number is at least ``retired``.  Retirements due by a
    store's arrival are counted arithmetically, not popped one by one.
    """
    idle = float("inf")  # next_retire while the buffer is empty
    sequence = [-1] * (max(lines) + 1 if lines else 0)
    inserted = retired = merged = full_stalls = stall_cycles = 0
    next_retire = idle
    for line, arrival in zip(lines, arrivals):
        now = arrival + stall_cycles
        if next_retire <= now:
            due = (now - next_retire) // interval + 1
            if due >= inserted - retired:
                retired = inserted
                next_retire = idle
            else:
                retired += due
                next_retire += due * interval
        if sequence[line] >= retired:
            merged += 1
            continue
        if inserted - retired >= capacity:
            # Stall until the pending retirement frees an entry.
            full_stalls += 1
            stall_cycles += next_retire - now
            now = next_retire
            retired += 1
            next_retire = idle if retired == inserted else next_retire + interval
        sequence[line] = inserted
        inserted += 1
        if next_retire == idle:
            next_retire = now + interval
    return WriteBufferStats(
        writes=len(lines),
        merged=merged,
        inserted=inserted,
        retired=retired,
        stall_cycles=stall_cycles,
        full_stalls=full_stalls,
    )
