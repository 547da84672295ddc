"""System composition: a declarative cache hierarchy over metered memory.

:class:`HierarchyConfig` describes the whole graph — an ordered list of
:class:`LevelConfig`\\ s (each a :class:`~repro.cache.config.CacheConfig`
plus the structures attached at that level: write cache, victim cache,
miss cache, stream buffers), terminated by a metered
:class:`~repro.hierarchy.memory.MainMemory`.  :class:`CacheSystem` builds
it by stacking :class:`CacheLevelBackend` adapters ("two or more levels
of caching are assumed" — Section 1), wrapping each level's structures
around its exit and metering every inter-level boundary with a
:class:`~repro.hierarchy.memory.TrafficMeter`.

:class:`SystemStats` packages the whole composition — per-level cache and
structure counters plus per-boundary meters — as one serializable result
the experiment layer can persist (the ``system`` experiment kind; see
:mod:`repro.exec.experiments`).  Its ``l1`` and ``memory`` properties
name the two ends the paper's Section 5 measurements read: level 0's
cache counters and the last boundary, which is main memory.

See ``docs/hierarchy.md`` for the graph model and structure semantics.
"""

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

from repro.cache.backend import Backend
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.common.errors import ConfigurationError
from repro.buffers.miss_cache import (
    MissCacheBackend,
    MissCacheStats,
    attach_miss_cache,
)
from repro.buffers.stream_buffer import (
    StreamBufferBackend,
    StreamBufferStats,
    attach_stream_buffer,
)
from repro.buffers.victim_cache import (
    VictimCacheBackend,
    VictimCacheStats,
    attach_victim_cache,
)
from repro.buffers.write_cache import WriteCache, WriteCacheBackend, WriteCacheStats
from repro.hierarchy.memory import MainMemory, TrafficMeter
from repro.trace.trace import Trace

#: Bump whenever system composition can alter the statistics produced for
#: an unchanged (trace, config) pair.  The ``system`` experiment kind also
#: folds the L1 simulator version into its engine tag, so either bump
#: invalidates stored system results.  v2: the hierarchy-graph refactor —
#: multi-level configs, miss caches and stream buffers, per-level stats.
#: Stored v1 system records are orphaned by the bump; ``repro store gc``
#: quarantines them (it never deletes), see docs/hierarchy.md.
SYSTEM_ENGINE_VERSION = 2


@dataclass(frozen=True)
class LevelConfig:
    """One cache level plus the structures attached at that level."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    write_cache_entries: int = 0  #: write-through levels only
    victim_entries: int = 0  #: direct-mapped levels only
    miss_entries: int = 0
    stream_buffers: int = 0
    stream_depth: int = 4

    def cache_key(self) -> str:
        """Stable canonical identity string (hashed by the result store)."""
        return (
            f"lvl_wc={self.write_cache_entries}:victims={self.victim_entries}:"
            f"miss={self.miss_entries}:"
            f"streams={self.stream_buffers}x{self.stream_depth}:"
            f"{self.cache.cache_key()}"
        )

    @property
    def name(self) -> str:
        """Label naming the cache *and* every attached structure."""
        extras = []
        if self.write_cache_entries:
            extras.append(f"+WC{self.write_cache_entries}")
        if self.victim_entries:
            extras.append(f"+VC{self.victim_entries}")
        if self.miss_entries:
            extras.append(f"+MC{self.miss_entries}")
        if self.stream_buffers:
            extras.append(f"+SB{self.stream_buffers}x{self.stream_depth}")
        return self.cache.name + "".join(extras)

    def to_dict(self) -> dict:
        """JSON-safe payload; the cache config nests as its own dict."""
        return {
            "cache": self.cache.to_dict(),
            "write_cache_entries": self.write_cache_entries,
            "victim_entries": self.victim_entries,
            "miss_entries": self.miss_entries,
            "stream_buffers": self.stream_buffers,
            "stream_depth": self.stream_depth,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LevelConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise, missing default."""
        known = {
            "cache", "write_cache_entries", "victim_entries",
            "miss_entries", "stream_buffers", "stream_depth",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown LevelConfig fields: {sorted(unknown)}")
        data = dict(payload)
        if "cache" in data:
            data["cache"] = CacheConfig.from_dict(data["cache"])
        return cls(**data)


@dataclass(frozen=True)
class HierarchyConfig:
    """Immutable description of one composed-hierarchy experiment.

    ``levels`` orders the caches from the processor outward: ``levels[0]``
    is the L1 and ``levels[-1]`` sits directly on main memory.
    """

    levels: Tuple[LevelConfig, ...] = (LevelConfig(),)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ConfigurationError("a hierarchy needs at least one cache level")

    def cache_key(self) -> str:
        """Stable canonical identity string (hashed by the result store)."""
        return "hier:" + "|".join(level.cache_key() for level in self.levels)

    @property
    def name(self) -> str:
        """Label naming every level and structure (L1 outward)."""
        return "->".join(level.name for level in self.levels)

    def to_dict(self) -> dict:
        """JSON-safe payload; one nested dict per level."""
        return {"levels": [level.to_dict() for level in self.levels]}

    @classmethod
    def from_dict(cls, payload: dict) -> "HierarchyConfig":
        """Inverse of :meth:`to_dict`; ``levels`` is required and unknown
        keys raise :class:`ValueError`."""
        if "levels" not in payload:
            raise ValueError("a HierarchyConfig payload needs a 'levels' list")
        unknown = set(payload) - {"levels"}
        if unknown:
            raise ValueError(f"unknown HierarchyConfig fields: {sorted(unknown)}")
        return cls(
            levels=tuple(LevelConfig.from_dict(level) for level in payload["levels"])
        )


@dataclass
class LevelStats:
    """One level of a composed run: cache counters plus its structures."""

    cache: CacheStats = field(default_factory=CacheStats)
    write_cache: Optional[WriteCacheStats] = None
    victim_cache: Optional[VictimCacheStats] = None
    miss_cache: Optional[MissCacheStats] = None
    stream_buffer: Optional[StreamBufferStats] = None

    _STRUCTURES: ClassVar[dict] = {
        "write_cache": WriteCacheStats,
        "victim_cache": VictimCacheStats,
        "miss_cache": MissCacheStats,
        "stream_buffer": StreamBufferStats,
    }

    @property
    def structure_hits(self) -> int:
        """Misses of this level's cache serviced by an attached structure."""
        hits = 0
        for name in ("victim_cache", "miss_cache", "stream_buffer"):
            structure = getattr(self, name)
            if structure is not None:
                hits += structure.hits
        return hits

    def to_dict(self) -> dict:
        """Nested plain-dict form; absent structures are omitted."""
        payload = {"cache": self.cache.to_dict()}
        for name in self._STRUCTURES:
            structure = getattr(self, name)
            if structure is not None:
                payload[name] = structure.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "LevelStats":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        unknown = set(payload) - {"cache"} - set(cls._STRUCTURES)
        if unknown:
            raise ValueError(f"unknown LevelStats fields: {sorted(unknown)}")
        kwargs = {"cache": CacheStats.from_dict(payload["cache"])}
        for name, stats_type in cls._STRUCTURES.items():
            if name in payload:
                kwargs[name] = stats_type.from_dict(payload[name])
        return cls(**kwargs)


@dataclass
class SystemStats:
    """One composed run: per-level counters and per-boundary meters.

    ``levels[i]`` carries the cache and structure counters of hierarchy
    level *i*; ``boundaries[i]`` meters the traffic that left level *i*
    toward level *i+1* — so ``boundaries[-1]`` is what actually reached
    main memory.  With a write cache in a level's chain that boundary's
    ``write_throughs`` is the *merged* store stream, and with a victim,
    miss or stream structure its ``fetches`` exclude the misses the
    structure serviced (and include any prefetches it issued).  The four
    back-side components the paper's Section 5 taxonomy splits traffic
    into are exposed as properties over the memory boundary.
    """

    kind: ClassVar[str] = "system"

    levels: List[LevelStats] = field(default_factory=lambda: [LevelStats()])
    boundaries: List[TrafficMeter] = field(default_factory=lambda: [TrafficMeter()])

    # -- the two ends Section 5 measures -------------------------------------

    @property
    def l1(self) -> CacheStats:
        """The first-level cache's counters."""
        return self.levels[0].cache

    @property
    def memory(self) -> TrafficMeter:
        """Traffic that actually reached main memory."""
        return self.boundaries[-1]

    # -- the four back-side traffic components (Section 5) -------------------

    @property
    def read_miss_fetches(self) -> int:
        """Fetch transactions caused by loads (incl. partial-miss refills)."""
        return self.l1.fetches_for_reads + self.l1.fetches_for_partial_reads

    @property
    def write_miss_fetches(self) -> int:
        """Fetch transactions caused by stores (fetch-on-write)."""
        return self.l1.fetches_for_writes

    @property
    def writeback_transactions(self) -> int:
        """Dirty-victim write-backs that reached memory (flush included)."""
        return self.memory.writebacks

    @property
    def write_through_transactions(self) -> int:
        """Write-throughs that reached memory (post-merging, if any)."""
        return self.memory.write_throughs

    # -- aggregates -----------------------------------------------------------

    @property
    def transactions(self) -> int:
        """All memory transactions regardless of direction."""
        return self.memory.transactions

    @property
    def bytes_total(self) -> int:
        """All memory bytes moved regardless of direction."""
        return self.memory.bytes_total

    @property
    def transactions_per_instruction(self) -> float:
        """Memory transactions per dynamic instruction (Fig. 18-19 y-axis)."""
        if not self.l1.instructions:
            return 0.0
        return self.memory.transactions / self.l1.instructions

    @property
    def bytes_per_instruction(self) -> float:
        """Memory bytes per dynamic instruction."""
        if not self.l1.instructions:
            return 0.0
        return self.memory.bytes_total / self.l1.instructions

    @property
    def effective_miss_ratio(self) -> float:
        """L1 demand misses *not* serviced at level 0, per reference.

        The mechanism-comparison y-axis: an attached victim cache, miss
        cache or stream buffer turns some L1 demand fetches into structure
        hits, and this ratio charges only the remainder — what the L1
        plus its structures could not contain.
        """
        accesses = self.l1.accesses
        if not accesses:
            return 0.0
        return (self.l1.fetches - self.levels[0].structure_hits) / accesses

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Nested plain-dict form (JSON-safe for the result store)."""
        return {
            "levels": [level.to_dict() for level in self.levels],
            "boundaries": [meter.to_dict() for meter in self.boundaries],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemStats":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        unknown = set(payload) - {"levels", "boundaries"}
        if unknown:
            raise ValueError(f"unknown SystemStats fields: {sorted(unknown)}")
        return cls(
            levels=[LevelStats.from_dict(level) for level in payload["levels"]],
            boundaries=[
                TrafficMeter.from_dict(meter) for meter in payload["boundaries"]
            ],
        )


class CacheLevelBackend(Backend):
    """Present a cache as the next level below another cache.

    Fetches become line-sized reads; write-backs become writes of the
    dirty sub-blocks; write-throughs become ordinary writes.  All of these
    go through the lower cache's normal access paths, so its statistics
    and its own backend traffic remain meaningful.
    """

    def __init__(self, cache: Cache) -> None:
        self.cache = cache

    def fetch(self, line_address: int, line_size: int):
        self.cache.read(line_address, line_size)
        return None

    def write_back(self, line_address: int, line_size: int, dirty_mask: int, data=None):
        # Write each contiguous dirty extent at its exact byte length, so
        # sub-word dirty runs do not inflate lower-level write traffic.
        offset = 0
        while offset < line_size:
            if (dirty_mask >> offset) & 1:
                start = offset
                while offset < line_size and (dirty_mask >> offset) & 1:
                    offset += 1
                self._write_extent(line_address + start, offset - start)
            else:
                offset += 1

    def _write_extent(self, address: int, length: int) -> None:
        # Split into the largest naturally-aligned stores the cache access
        # path accepts (8/4/2/1 B), never writing beyond the dirty extent.
        while length:
            size = 1
            for candidate in (8, 4, 2):
                if length >= candidate and address % candidate == 0:
                    size = candidate
                    break
            self.cache.write(address, size)
            address += size
            length -= size

    def write_through(self, address: int, size: int, data=None) -> None:
        self.cache.write(address, size)


class MeteringBackend(Backend):
    """Count an inter-level boundary's traffic, byte-for-byte as
    :class:`~repro.hierarchy.memory.MainMemory` would.

    Wrapping the lower level's entry with this adapter is what makes a
    two-level hierarchy's first boundary bit-identical to a flat system's
    memory meter (the differential the test suite asserts): every
    write-back meters at full line width regardless of the dirty extent,
    exactly like the terminal memory.
    """

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.meter = TrafficMeter()

    def fetch(self, line_address: int, line_size: int):
        self.meter.fetches += 1
        self.meter.fetch_bytes += line_size
        return self.inner.fetch(line_address, line_size)

    def write_back(self, line_address: int, line_size: int, dirty_mask: int, data=None):
        self.meter.writebacks += 1
        self.meter.writeback_bytes += line_size
        self.inner.write_back(line_address, line_size, dirty_mask, data)

    def write_through(self, address: int, size: int, data=None) -> None:
        self.meter.write_throughs += 1
        self.meter.write_through_bytes += size
        self.inner.write_through(address, size, data)


class _Level:
    """One built hierarchy level: the cache and its attached structures."""

    def __init__(self, config: LevelConfig, entry: Backend) -> None:
        self.config = config
        self.write_cache: Optional[WriteCache] = None
        self.victim_backend: Optional[VictimCacheBackend] = None
        self.miss_backend: Optional[MissCacheBackend] = None
        self.stream_backend: Optional[StreamBufferBackend] = None
        backend = entry
        if config.write_cache_entries > 0:
            if not config.cache.is_write_through:
                raise ValueError(
                    "a write cache reduces write-through traffic; "
                    "write-back caches use a dirty-victim buffer instead"
                )
            self.write_cache = WriteCache(entries=config.write_cache_entries)
            backend = WriteCacheBackend(self.write_cache, entry)
        self.cache = Cache(config.cache, backend=backend)
        if config.stream_buffers > 0:
            # attach_* validates (stats-only) and rewires the cache backend,
            # so later attachments probe *before* earlier ones on a miss.
            self.stream_backend = attach_stream_buffer(
                self.cache, config.stream_buffers, config.stream_depth, backend
            )
            backend = self.stream_backend
        if config.miss_entries > 0:
            self.miss_backend = attach_miss_cache(
                self.cache, config.miss_entries, backend
            )
            backend = self.miss_backend
        if config.victim_entries > 0:
            # attach_victim_cache also validates direct-mapped and wires
            # the victim hook; the victim cache probes first on a miss.
            self.victim_backend = attach_victim_cache(
                self.cache, config.victim_entries, backend
            )

    def flush(self) -> None:
        """Drain this level in structure order: cache, victims, writes."""
        self.cache.flush()
        if self.victim_backend is not None:
            self.victim_backend.flush()
        if self.miss_backend is not None:
            self.miss_backend.flush()
        if self.stream_backend is not None:
            self.stream_backend.flush()
        if self.write_cache is not None:
            self.write_cache.flush()

    def stats(self) -> LevelStats:
        return LevelStats(
            cache=self.cache.stats,
            write_cache=(
                self.write_cache.stats if self.write_cache is not None else None
            ),
            victim_cache=(
                self.victim_backend.victim_cache.stats
                if self.victim_backend is not None
                else None
            ),
            miss_cache=(
                self.miss_backend.miss_cache.stats
                if self.miss_backend is not None
                else None
            ),
            stream_buffer=(
                self.stream_backend.stream_buffer.stats
                if self.stream_backend is not None
                else None
            ),
        )


def _as_hierarchy(config) -> HierarchyConfig:
    """Accept either a HierarchyConfig or a bare L1 CacheConfig."""
    if isinstance(config, HierarchyConfig):
        return config
    return HierarchyConfig(levels=(LevelConfig(cache=config),))


class CacheSystem:
    """A built cache hierarchy: levels, boundary meters and main memory."""

    def __init__(self, config=None, memory: Optional[MainMemory] = None) -> None:
        config = _as_hierarchy(CacheConfig() if config is None else config)
        self.config = config
        store_data = config.levels[0].cache.store_data
        self.memory = (
            memory if memory is not None else MainMemory(store_data=store_data)
        )
        # Build from memory upward: each level's entry point is the next
        # level's cache behind a metering adapter, except the last level,
        # whose entry is the (self-metering) main memory.
        self.levels: List[_Level] = []
        self._boundary_meters: List[TrafficMeter] = []
        entry: Backend = self.memory
        meters = [self.memory.meter]
        for level_config in reversed(config.levels[1:]):
            level = _Level(level_config, entry)
            self.levels.append(level)
            metered = MeteringBackend(CacheLevelBackend(level.cache))
            meters.append(metered.meter)
            entry = metered
        self.levels.append(_Level(config.levels[0], entry))
        self.levels.reverse()
        meters.reverse()
        self._boundary_meters = meters

    @property
    def l1(self) -> Cache:
        return self.levels[0].cache

    def run(self, trace: Trace, flush: bool = True) -> CacheStats:
        """Drive ``trace`` through the hierarchy; optionally flush at the end.

        Flushing drains the hierarchy from the processor outward — each
        level's dirty lines, then its dirty victim-cache residents, then
        its write-cache entries, before the next level sees its traffic —
        exactly what powering down the chip would force out.
        """
        stats = self.l1.run(trace)
        if flush:
            for level in self.levels:
                level.flush()
        return stats

    def system_stats(self) -> SystemStats:
        """Snapshot the whole composition as one serializable result."""
        return SystemStats(
            levels=[level.stats() for level in self.levels],
            boundaries=list(self._boundary_meters),
        )

    @property
    def memory_traffic(self) -> TrafficMeter:
        """Traffic that actually reached main memory."""
        return self.memory.meter


def simulate_system(trace: Trace, config, flush: bool = True) -> SystemStats:
    """Run one composed-hierarchy experiment and return its stats.

    Dispatches through :func:`repro.hierarchy.hiersim.simulate_hierarchy`:
    structure-free stats-only levels run level-by-level through the
    vector kernel with derived boundary meters, and anything the kernel
    declines (attached structures, set-associative, data-carrying or
    sectored levels) runs through the composed :class:`CacheSystem` over
    the already-materialized stream.  Every route is bit-identical to
    composing the whole graph (the differential suites assert it
    stat-for-stat), so results never depend on the route taken.
    """
    from repro.hierarchy import hiersim

    return hiersim.simulate_hierarchy(trace, _as_hierarchy(config), flush=flush)


def simulate_system_chunked(chunks, config, flush: bool = True) -> SystemStats:
    """:func:`simulate_system` over streamed trace chunks (bounded memory)."""
    from repro.hierarchy import hiersim

    return hiersim.simulate_hierarchy_chunked(chunks, _as_hierarchy(config), flush=flush)
