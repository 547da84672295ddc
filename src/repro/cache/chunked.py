"""Chunk-resumable simulation cursors over streamed trace chunks.

A cursor accepts :class:`repro.trace.trace.Trace` chunks one at a time
(the output of :func:`repro.trace.ingest.iter_trace_chunks`) and
produces :class:`CacheStats` bit-identical to a single in-memory run
over the concatenated trace, while holding only one chunk plus per-set
cache state in memory.  :func:`open_cursor` mirrors the engine dispatch
of :func:`repro.cache.fastsim.simulate_trace`: a :class:`VectorCursor`
for what the vector kernel covers, a :class:`ReferenceCursor` (one
persistent reference ``Cache``) for everything else or when the
``reference`` backend is pinned.

The vectorised cursor cannot simply re-enter the array kernel with
carried state (the kernel's scans assume a cold cache), so it resumes by
*prelude reconstruction*: the exported end-of-chunk state
(:class:`repro.cache.vecsim.CacheState`) is rebuilt as a short synthetic
trace whose simulation provably recreates that exact state, the next
chunk runs behind that prelude in one combined pass, and the prelude's
own stats — identical standalone or as a prefix, because classification
is causal per set — are subtracted back out.  Prelude references carry
``icount=0`` and never pass :class:`MemRef` validation (they can be
whole-line loads), which is fine: they exist only inside the array
kernel.
"""

from dataclasses import fields
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.cache import vecsim
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.policies import WriteMissPolicy
from repro.cache.stats import CacheStats
from repro.trace.trace import Trace

#: Trace kind codes (match :class:`repro.trace.memref.MemRef` packing).
_KIND_READ = 0
_KIND_WRITE = 1

_ALLOCATING = (WriteMissPolicy.FETCH_ON_WRITE, WriteMissPolicy.WRITE_VALIDATE)


def subtract_stats(a: CacheStats, b: CacheStats) -> CacheStats:
    """Element-wise ``a - b`` over every counter (inverse of ``merge``)."""
    out = CacheStats()
    for spec in fields(CacheStats):
        if spec.name in ("extra", "line_size"):
            continue
        setattr(out, spec.name, getattr(a, spec.name) - getattr(b, spec.name))
    out.line_size = a.line_size
    return out


def _contiguous_runs(mask: int) -> Iterator[Tuple[int, int]]:
    """``(offset, length)`` of each run of set bits, ascending."""
    offset = 0
    while mask:
        trailing_zeros = (mask & -mask).bit_length() - 1
        mask >>= trailing_zeros
        offset += trailing_zeros
        length = (~mask & -~mask).bit_length() - 1
        yield offset, length
        mask >>= length
        offset += length


def build_prelude(state: "vecsim.CacheState", config: CacheConfig) -> Trace:
    """A synthetic trace whose cold simulation ends in exactly ``state``.

    Per resident set (``base`` = the line's first byte address):

    - allocating policies with a fully valid line, and both no-allocate
      policies (whose resident lines are always fully valid and clean):
      one whole-line load installs the tag; write-back dirty bytes are
      then re-dirtied by store hits over each contiguous dirty run.
    - write-validate with a partial valid mask: the line was allocated
      by an eligible store and never refetched, so the valid mask always
      contains at least one fully valid granule at a granule-aligned
      offset — replay a granule-sized store there first (an eligible
      write miss, recreating the no-fetch allocation), then store hits
      over the remaining valid runs.  Such lines have ``valid == dirty``
      under write-back, so the same stores settle both masks.
    """
    line_size = config.line_size
    granularity = config.valid_granularity
    full = config.full_line_mask
    addresses: List[int] = []
    sizes: List[int] = []
    kinds: List[int] = []
    allocating = config.write_miss in _ALLOCATING
    for position in range(state.resident_count):
        base = int(
            (
                (state.tags[position] << config.index_bits)
                | state.set_indices[position]
            )
            << config.offset_bits
        )
        valid = state.valid[position]
        dirty = state.dirty[position]
        if not allocating or valid == full:
            addresses.append(base)
            sizes.append(line_size)
            kinds.append(_KIND_READ)
            store_mask = dirty
        else:
            granule_block = ((1 << granularity) - 1)
            for slot in range(line_size // granularity):
                block = granule_block << (slot * granularity)
                if valid & block == block:
                    break
            else:  # pragma: no cover - impossible for kernel-produced state
                raise AssertionError("partial write-validate line lacks a full granule")
            addresses.append(base + slot * granularity)
            sizes.append(granularity)
            kinds.append(_KIND_WRITE)
            store_mask = valid & ~block
        for offset, length in _contiguous_runs(store_mask):
            addresses.append(base + offset)
            sizes.append(length)
            kinds.append(_KIND_WRITE)
    count = len(addresses)
    return Trace.from_arrays(
        np.asarray(addresses, dtype=np.int64),
        np.asarray(sizes, dtype=np.int32),
        np.asarray(kinds, dtype=np.int8),
        np.zeros(count, dtype=np.int32),
        name="<prelude>",
    )


def _flush_from_state(
    stats: CacheStats, state: "vecsim.CacheState", config: CacheConfig
) -> None:
    """Flush-stop accounting over an exported state."""
    stats.flushed_lines += state.resident_count
    for dirty in state.dirty:
        if not dirty:
            continue
        dirty_bytes = bin(dirty).count("1")
        stats.flushed_dirty_lines += 1
        stats.flushed_dirty_bytes += dirty_bytes
        if config.subblock_dirty_writeback:
            stats.flush_writeback_bytes += dirty_bytes
        else:
            stats.flush_writeback_bytes += config.line_size


class VectorCursor:
    """Chunk cursor over the vectorised kernel (prelude resume)."""

    def __init__(self, config: CacheConfig, flush: bool):
        assert vecsim.supports(config), "caller must check vecsim.supports(config)"
        self.config = config
        self.flush = flush
        self._stats: Optional[CacheStats] = None
        self._state: Optional[vecsim.CacheState] = None

    def feed(self, chunk: Trace) -> None:
        if len(chunk) == 0:
            if self._stats is None:
                self._stats = CacheStats(line_size=self.config.line_size)
            self._stats.instructions += chunk.instruction_count
            return
        if self._state is None or self._state.resident_count == 0:
            stats, state = vecsim.simulate_with_state(chunk, self.config, flush=False)
        else:
            prelude = build_prelude(self._state, self.config)
            combined = prelude.concat(chunk, name=chunk.name)
            combined_stats, state = vecsim.simulate_with_state(
                combined, self.config, flush=False
            )
            prelude_stats = vecsim.simulate_direct_mapped(
                prelude, self.config, flush=False
            )
            stats = subtract_stats(combined_stats, prelude_stats)
        self._stats = stats if self._stats is None else self._stats.merge(stats)
        self._state = state

    def finish(self) -> CacheStats:
        stats = self._stats
        if stats is None:
            stats = CacheStats(line_size=self.config.line_size)
        if self.flush and self._state is not None:
            _flush_from_state(stats, self._state, self.config)
        return stats


class ReferenceCursor:
    """Chunk cursor over the reference :class:`Cache` (persistent object)."""

    def __init__(self, config: CacheConfig, flush: bool):
        self.flush = flush
        self._cache = Cache(config)

    def feed(self, chunk: Trace) -> None:
        self._cache.run(chunk)

    def finish(self) -> CacheStats:
        if self.flush:
            self._cache.flush()
        return self._cache.stats


def open_cursor(config: CacheConfig, flush: bool = True, backend: str = None):
    """A chunk cursor for ``config``, dispatched like ``simulate_trace``.

    Feed :class:`Trace` chunks with ``cursor.feed(chunk)``; a final
    ``cursor.finish()`` settles flush-stop accounting (when ``flush``)
    and returns the accumulated :class:`CacheStats`, bit-identical to a
    one-shot run over the concatenated chunks.
    """
    from repro.cache import fastsim

    if fastsim._use_reference(config, fastsim._resolve_backend(backend)):
        return ReferenceCursor(config, flush)
    return VectorCursor(config, flush)
