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
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar

from repro.common.bitops import log2_int
from repro.common.errors import ConfigurationError
from repro.common.serde import CounterSerde
from repro.trace.events import WRITE
from repro.trace.trace import Trace

#: Bump whenever a model change can alter the statistics produced for an
#: unchanged (trace, config) pair; the result store folds the kind's
#: engine version into every write-buffer content hash.
WRITE_BUFFER_ENGINE_VERSION = 1


#: How loads interact with buffered stores (Smith [13] design space):
#: - ``"ignore"``: loads bypass the buffer (the paper's Fig. 5 model —
#:   correct when read misses are checked against the buffer elsewhere);
#: - ``"forward"``: a load matching a buffered line is satisfied from the
#:   buffer at no cost (full store-to-load forwarding);
#: - ``"drain"``: a load matching a buffered line stalls until that entry
#:   (and everything ahead of it) retires — the simplest correct
#:   hardware, and the cost the paper's write cache avoids.
READ_POLICIES = ("ignore", "forward", "drain")


@dataclass(frozen=True)
class WriteBufferConfig(CounterSerde):
    """Immutable description of one coalescing write buffer experiment."""

    entries: int = 8
    entry_size: int = 16
    retire_interval: int = 5
    read_policy: str = "ignore"

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
    read_matches: int = 0  #: loads that matched a buffered line
    read_forwards: int = 0  #: matches satisfied by forwarding
    read_drain_stalls: int = 0  #: matches that forced a drain
    read_stall_cycles: int = 0  #: cycles spent draining for loads

    @property
    def merge_fraction(self) -> float:
        """Fraction of all writes merged (Fig. 5 left axis)."""
        return self.merged / self.writes if self.writes else 0.0

    @property
    def stall_cpi(self) -> float:
        """Store stall cycles per instruction (Fig. 5 right axis)."""
        return self.stall_cycles / self.instructions if self.instructions else 0.0

    @property
    def total_stall_cpi(self) -> float:
        """Store plus load-drain stall cycles per instruction."""
        if not self.instructions:
            return 0.0
        return (self.stall_cycles + self.read_stall_cycles) / self.instructions


class CoalescingWriteBuffer:
    """FIFO write buffer with coalescing and fixed-interval retirement."""

    def __init__(
        self,
        entries: int = 8,
        entry_size: int = 16,
        retire_interval: int = 5,
        read_policy: str = "ignore",
    ):
        if entries < 1:
            raise ConfigurationError("write buffer needs at least one entry")
        log2_int(entry_size)
        if retire_interval < 0:
            raise ConfigurationError("retire_interval must be >= 0")
        if read_policy not in READ_POLICIES:
            raise ConfigurationError(
                f"read_policy must be one of {READ_POLICIES}, got {read_policy!r}"
            )
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

        read_policy = self.read_policy
        for address, _, kind, icount in zip(
            trace.addresses, trace.sizes, trace.kinds, trace.icounts
        ):
            now += icount
            stats.instructions += icount
            if kind != WRITE:
                if read_policy == "ignore" or interval == 0:
                    continue
                retire_due(now)
                line_address = address & ~offset_mask
                if line_address not in buffer:
                    continue
                stats.read_matches += 1
                if read_policy == "forward":
                    stats.read_forwards += 1
                    continue
                # drain: stall until the matching entry (and everything
                # ahead of it in FIFO order) has retired.
                stats.read_drain_stalls += 1
                position = list(buffer).index(line_address)
                assert next_retire is not None
                drained_at = next_retire + position * interval
                stats.read_stall_cycles += drained_at - now
                now = drained_at
                retire_due(now)
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
