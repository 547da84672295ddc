"""The write cache — the paper's proposed structure (Section 3.2, Fig. 6).

A small fully-associative cache of 8 B lines placed between a
write-through data cache and its write buffer.  Writes that hit in the
write cache are merged (removed from the exit traffic); a write that
misses evicts the LRU entry to the next level and takes its place.  8 B
lines "since no writes larger than 8B exist in most architectures, and
write paths leaving chips are often 8B".

The class also supports the paper's noted extension: "a write cache can
also be implemented with the additional functionality of a victim cache,
in which case not all entries in the small fully-associative cache would
be dirty" — enable ``victim_mode`` and feed it L1 victims / read probes.

:func:`run_write_cache_grid` computes a grid of stand-alone runs over one
trace from a single LRU stack-depth pass per line size;
:meth:`WriteCache.run_writes` is its per-spec oracle.
"""

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence

import numpy as np

from repro.common.bitops import log2_int
from repro.common.errors import ConfigurationError
from repro.common.lru import LruTracker
from repro.common.serde import CounterSerde
from repro.common.units import check_count
from repro.cache.backend import Backend
from repro.trace.events import WRITE
from repro.trace.trace import Trace

#: Bump whenever a model change can alter write-cache statistics for an
#: unchanged (trace, config) pair; invalidates stored write-cache results.
WRITE_CACHE_ENGINE_VERSION = 1

#: Deepest entry count :func:`run_write_cache_grid` serves from its
#: stack-depth ladder.  The ladder pays O(depth) per store where
#: :meth:`WriteCache.run_writes` pays O(1); at 64 entries a one-spec
#: ladder and the oracle cost about the same, so deeper specs run the
#: oracle.
LADDER_MAX_ENTRIES = 64


@dataclass(frozen=True)
class WriteCacheConfig(CounterSerde):
    """Immutable description of one stand-alone write-cache experiment."""

    entries: int = 5
    line_size: int = 8

    def __post_init__(self) -> None:
        check_count("entries", self.entries)
        check_count("line_size", self.line_size, minimum=1)
        log2_int(self.line_size)

    def cache_key(self) -> str:
        """Stable canonical identity string (hashed by the result store)."""
        return f"wc_entries={self.entries}:line={self.line_size}"

    @property
    def name(self) -> str:
        """Short human-readable label for progress reporting."""
        return f"WC{self.entries}x{self.line_size}B"

    def build(self) -> "WriteCache":
        """Instantiate the write cache this config describes."""
        return WriteCache(entries=self.entries, line_size=self.line_size)


@dataclass
class WriteCacheStats(CounterSerde):
    """Counters for one write-cache run."""

    kind: ClassVar[str] = "write_cache"

    writes: int = 0  #: stores presented
    merged: int = 0  #: stores absorbed by an existing (dirty) entry
    evicted: int = 0  #: entries pushed to the next level during execution
    flushed: int = 0  #: dirty entries pushed at flush time
    read_probes: int = 0  #: victim-mode read probes
    read_hits: int = 0  #: victim-mode read probes that hit

    @property
    def fraction_removed(self) -> float:
        """Fraction of all writes removed from the exit traffic (Fig. 7)."""
        return self.merged / self.writes if self.writes else 0.0

    @property
    def exit_writes(self) -> int:
        """Write transactions leaving the write cache (evictions + flush)."""
        return self.evicted + self.flushed


class WriteCache:
    """Fully-associative LRU cache of small dirty lines."""

    def __init__(
        self,
        entries: int = 5,
        line_size: int = 8,
        downstream: Optional[Backend] = None,
        victim_mode: bool = False,
    ) -> None:
        if entries < 0:
            raise ConfigurationError("entries must be >= 0 (0 = pass-through)")
        log2_int(line_size)
        self.entries = entries
        self.line_size = line_size
        self.downstream = downstream
        self.victim_mode = victim_mode
        self.stats = WriteCacheStats()
        self._lru = LruTracker()  # line address -> recency
        self._dirty = set()  # victim-mode: clean entries are not dirty
        self._offset_mask = line_size - 1

    def __len__(self) -> int:
        return len(self._lru)

    def write(self, address: int, size: int = 4) -> None:
        """Present one store to the write cache."""
        self.stats.writes += 1
        line_address = address & ~self._offset_mask
        if self.entries == 0:
            self._emit(line_address)
            return
        if line_address in self._lru:
            self.stats.merged += 1
            self._lru.touch(line_address)
            self._dirty.add(line_address)
            return
        if len(self._lru) >= self.entries:
            victim = self._lru.evict()
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.stats.evicted += 1
                self._emit(victim)
        self._lru.touch(line_address)
        self._dirty.add(line_address)

    def insert_clean(self, address: int) -> None:
        """Victim-mode: accept a clean line evicted from the L1 cache."""
        if not self.victim_mode or self.entries == 0:
            return
        line_address = address & ~self._offset_mask
        if line_address in self._lru:
            self._lru.touch(line_address)
            return
        if len(self._lru) >= self.entries:
            victim = self._lru.evict()
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.stats.evicted += 1
                self._emit(victim)
        self._lru.touch(line_address)

    def probe_read(self, address: int) -> bool:
        """Victim-mode: can a missing L1 read be serviced from here?"""
        self.stats.read_probes += 1
        line_address = address & ~self._offset_mask
        hit = line_address in self._lru
        if hit:
            self.stats.read_hits += 1
            self._lru.touch(line_address)
        return hit

    def flush(self) -> None:
        """Push every remaining dirty entry to the next level."""
        for line_address in self._lru.as_list():
            if line_address in self._dirty:
                self.stats.flushed += 1
                self._emit(line_address)
        self._lru.clear()
        self._dirty.clear()

    def run_writes(self, trace: Trace, flush: bool = True) -> WriteCacheStats:
        """Feed every store of ``trace`` through the write cache.

        ``flush=True`` (the default) pushes the remaining dirty entries at
        the end — flush-stop accounting; ``flush=False`` leaves them
        resident (cold stop), so ``exit_writes`` counts evictions only.
        """
        offset_mask = self._offset_mask
        entries = self.entries
        lru = self._lru
        if entries == 0:
            write_count = trace.kinds.count(WRITE)
            self.stats.writes += write_count
            self.stats.evicted += write_count
            return self.stats
        # Inline hot loop over stores only (stats-only fast path).
        merged = 0
        writes = 0
        dirty = self._dirty
        for address, kind in zip(trace.addresses, trace.kinds):
            if kind != WRITE:
                continue
            writes += 1
            line_address = address & ~offset_mask
            if line_address in lru:
                merged += 1
                lru.touch(line_address)
            else:
                if len(lru) >= entries:
                    victim = lru.evict()
                    dirty.discard(victim)
                    self.stats.evicted += 1
                    self._emit(victim)
                lru.touch(line_address)
                dirty.add(line_address)
        self.stats.writes += writes
        self.stats.merged += merged
        if flush:
            self.flush()
        return self.stats

    def _emit(self, line_address: int) -> None:
        if self.downstream is not None:
            self.downstream.write_through(line_address, self.line_size)


def run_write_cache_grid(
    trace: Trace, configs: Sequence[WriteCacheConfig], flush: bool = True
) -> List[WriteCacheStats]:
    """Stand-alone write-cache runs over ``trace``, one stats per config.

    Equal, counter for counter, to ``config.build().run_writes(trace,
    flush)`` for each config.  Over stores only the write cache is a
    fully-associative LRU of line addresses, so by Mattson's inclusion
    property a store merges at N entries exactly when its LRU stack
    depth is below N.  One pass per distinct line size records the
    depth histogram up to the group's largest entry count (at most
    :data:`LADDER_MAX_ENTRIES`; deeper configs run the oracle), and
    every config of that line size reads its counters off it.
    """
    results: List[Optional[WriteCacheStats]] = [None] * len(configs)
    by_line_size = {}
    for index, config in enumerate(configs):
        if config.entries > LADDER_MAX_ENTRIES:
            results[index] = config.build().run_writes(trace, flush=flush)
        else:
            by_line_size.setdefault(config.line_size, []).append(index)
    store_addresses = trace.address_array[trace.kind_array == WRITE]
    for line_size, indices in by_line_size.items():
        lines = store_addresses & ~(line_size - 1)
        depth = max(configs[index].entries for index in indices)
        hist = _stack_depth_histogram(lines, depth)
        writes = len(lines)
        distinct = len(np.unique(lines))
        for index in indices:
            entries = configs[index].entries
            merged = sum(hist[:entries])
            resident = min(entries, distinct)
            results[index] = WriteCacheStats(
                writes=writes,
                merged=merged,
                evicted=writes - merged - resident,
                flushed=resident if flush else 0,
            )
    return results


def _stack_depth_histogram(lines: np.ndarray, depth: int) -> List[int]:
    """``hist[d]``: stores of ``lines`` at LRU stack depth ``d < depth``.

    Depth 0 is a store to the most recently stored line; a store to a
    line never seen, or seen ``depth`` or more distinct lines ago, counts
    nowhere.  A store repeating its predecessor's line is depth 0 and
    leaves the stack as it was, so runs collapse before the loop.
    """
    hist = [0] * depth
    if depth == 0 or len(lines) == 0:
        return hist
    repeats = lines[1:] == lines[:-1]
    hist[0] = int(np.count_nonzero(repeats))
    stack: List[int] = []  # MRU first: a line's list index is its depth
    for line in lines[np.concatenate(([True], ~repeats))].tolist():
        try:
            position = stack.index(line)
        except ValueError:
            if len(stack) == depth:
                stack.pop()
        else:
            hist[position] += 1
            del stack[position]
        stack.insert(0, line)
    return hist


class WriteCacheBackend(Backend):
    """Adapter placing a :class:`WriteCache` behind a write-through cache.

    Write-throughs enter the write cache; fetches and write-backs pass
    straight to ``memory``.  In victim mode, L1 dirty victims would also be
    inserted — write-through caches have none, so ``write_back`` passing
    through keeps the adapter correct for mixed experiments.
    """

    def __init__(self, write_cache: WriteCache, memory: Backend) -> None:
        self.write_cache = write_cache
        self.memory = memory
        write_cache.downstream = memory

    def fetch(self, line_address: int, line_size: int):
        return self.memory.fetch(line_address, line_size)

    def write_back(self, line_address: int, line_size: int, dirty_mask: int, data=None):
        self.memory.write_back(line_address, line_size, dirty_mask, data)

    def write_through(self, address: int, size: int, data=None) -> None:
        self.write_cache.write(address, size)
