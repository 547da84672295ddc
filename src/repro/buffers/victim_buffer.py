"""Dirty-victim buffer timing model (Section 3, Table 3).

A write-back cache needs somewhere to park a dirty victim while the
demand fetch that displaced it proceeds.  The paper argues a single entry
suffices "only in the case where the next lower level in the hierarchy is
not pipelined and multiple misses with dirty victims occur in series would
a dirty victim buffer with more than one entry be useful".  This model
lets that argument be quantified: given the cycle times at which dirty
victims are produced, it measures how often a miss must stall because the
buffer is still draining.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, List, Tuple

from repro.common.errors import ConfigurationError
from repro.common.serde import CounterSerde
from repro.common.units import check_count
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.trace.events import WRITE
from repro.trace.trace import Trace

#: Bump whenever the buffer model or victim-time extraction changes in a
#: way that can alter statistics for an unchanged (trace, config) pair.
VICTIM_BUFFER_ENGINE_VERSION = 1


@dataclass(frozen=True)
class VictimBufferConfig:
    """A dirty-victim buffer behind one write-back cache configuration."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    entries: int = 1
    retire_interval: int = 10

    def __post_init__(self) -> None:
        check_count("entries", self.entries, minimum=1)
        check_count("retire_interval", self.retire_interval, minimum=1)

    def cache_key(self) -> str:
        """Stable canonical identity string (hashed by the result store)."""
        return (
            f"vb_entries={self.entries}:retire={self.retire_interval}:"
            f"{self.cache.cache_key()}"
        )

    @property
    def name(self) -> str:
        """Short human-readable label for progress reporting."""
        return f"VB{self.entries}/retire{self.retire_interval} behind {self.cache.name}"

    def build(self) -> "DirtyVictimBuffer":
        """Instantiate the buffer this config describes (validates here)."""
        return DirtyVictimBuffer(
            entries=self.entries, retire_interval=self.retire_interval
        )

    def to_dict(self) -> dict:
        """JSON-safe payload; the backing cache nests as its own dict."""
        return {
            "cache": self.cache.to_dict(),
            "entries": self.entries,
            "retire_interval": self.retire_interval,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "VictimBufferConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise, missing default."""
        unknown = set(payload) - {"cache", "entries", "retire_interval"}
        if unknown:
            raise ValueError(f"unknown VictimBufferConfig fields: {sorted(unknown)}")
        data = dict(payload)
        if "cache" in data:
            data["cache"] = CacheConfig.from_dict(data["cache"])
        return cls(**data)


@dataclass
class VictimBufferStats(CounterSerde):
    """Outcome of one victim-buffer timing simulation."""

    kind: ClassVar[str] = "victim_buffer"

    victims: int = 0  #: dirty victims presented
    stalls: int = 0  #: victims that found the buffer full
    stall_cycles: int = 0
    instructions: int = 0

    @property
    def stall_fraction(self) -> float:
        """Fraction of dirty victims that had to wait for buffer space."""
        return self.stalls / self.victims if self.victims else 0.0

    @property
    def stall_cpi(self) -> float:
        """Stall cycles per instruction."""
        return self.stall_cycles / self.instructions if self.instructions else 0.0


class DirtyVictimBuffer:
    """FIFO buffer of dirty victims drained at a fixed interval."""

    def __init__(self, entries: int = 1, retire_interval: int = 10) -> None:
        if entries < 1:
            raise ConfigurationError("victim buffer needs at least one entry")
        if retire_interval < 1:
            raise ConfigurationError("retire_interval must be >= 1")
        self.entries = entries
        self.retire_interval = retire_interval

    def simulate(self, victim_times: Iterable[int], instructions: int) -> VictimBufferStats:
        """Replay dirty victims arriving at the given cycle times."""
        stats = VictimBufferStats(instructions=instructions)
        retire_times: deque = deque()  # when each occupied entry frees up
        interval = self.retire_interval
        for time in victim_times:
            stats.victims += 1
            while retire_times and retire_times[0] <= time:
                retire_times.popleft()
            if len(retire_times) >= self.entries:
                stats.stalls += 1
                wait_until = retire_times.popleft()
                stats.stall_cycles += wait_until - time
                time = wait_until
            # This victim starts draining after everything ahead of it.
            start = max(time, retire_times[-1]) if retire_times else time
            retire_times.append(start + interval)
        return stats


def dirty_victim_times(trace: Trace, config: CacheConfig) -> Tuple[List[int], int]:
    """Extract the cycle times at which ``trace`` produces dirty victims.

    Runs the reference simulator and samples its write-back counter after
    every reference; time is cumulative instruction count (base CPI 1).
    Returns ``(times, total_instructions)``.
    """
    cache = Cache(config)
    stats = cache.stats
    times: List[int] = []
    now = 0
    writebacks_seen = 0
    for address, size, kind, icount in zip(
        trace.addresses, trace.sizes, trace.kinds, trace.icounts
    ):
        now += icount
        if kind == WRITE:
            cache.write(address, size)
        else:
            cache.read(address, size)
        if stats.writebacks != writebacks_seen:
            times.extend([now] * (stats.writebacks - writebacks_seen))
            writebacks_seen = stats.writebacks
    return times, now
