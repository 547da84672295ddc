"""Cache statistics: every counter the paper's figures are computed from.

The counters follow *natural semantics*: the simulator counts what actually
happens (demand fetches, write-throughs, dirty-victim write-backs), and the
paper's derived metrics — writes-to-already-dirty fraction (Figs 1-2),
eliminated write misses (Figs 13-16), traffic components (Figs 18-19),
victim dirtiness (Figs 20-25) — are properties on top.

Cold-stop vs. flush-stop (Section 5): counters with the ``flush_`` prefix
accumulate only during :meth:`repro.cache.cache.Cache.flush`, so every
metric is available both ways, like Fig. 20's solid/dotted curve pairs.
"""

from dataclasses import dataclass, field, fields
from typing import ClassVar


def _ratio(numerator: float, denominator: float) -> float:
    """A percentage-friendly ratio that maps 0/0 to 0."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


@dataclass
class CacheStats:
    """Raw event counters plus the paper's derived metrics."""

    #: Stable experiment-kind tag (the Stats protocol; see
    #: :mod:`repro.exec.experiments`).
    kind: ClassVar[str] = "cache"

    # -- demand stream ------------------------------------------------------
    reads: int = 0  #: load references presented to the cache
    writes: int = 0  #: store references presented to the cache
    read_line_accesses: int = 0  #: per-line load accesses after splitting
    write_line_accesses: int = 0  #: per-line store accesses after splitting

    # -- hit/miss classification (per-line accesses) ------------------------
    read_hits: int = 0
    read_misses: int = 0  #: tag mismatch on a load
    read_partial_misses: int = 0  #: tag hit but requested bytes invalid
    write_hits: int = 0
    write_misses: int = 0  #: tag mismatch on a store
    writes_to_dirty_lines: int = 0  #: store hits on an already-dirty line

    # -- traffic out the back (transactions and bytes) ----------------------
    fetches: int = 0  #: demand line fetches from the next level
    fetch_bytes: int = 0
    fetches_for_reads: int = 0
    fetches_for_partial_reads: int = 0  #: write-validate residue refills
    fetches_for_writes: int = 0  #: fetch-on-write fetches
    writebacks: int = 0  #: dirty victims written back during execution
    writeback_bytes: int = 0  #: bytes actually transferred by write-backs
    writeback_dirty_bytes: int = 0  #: dirty bytes within those write-backs
    write_throughs: int = 0  #: stores passed to the next level
    write_through_bytes: int = 0

    # -- replacement / victim accounting (execution, i.e. cold stop) --------
    victims: int = 0  #: lines replaced (valid lines only)
    dirty_victims: int = 0
    dirty_victim_dirty_bytes: int = 0  #: sum of dirty bytes over dirty victims

    # -- policy-specific events ---------------------------------------------
    validate_allocations: int = 0  #: write-validate no-fetch allocations
    invalidations: int = 0  #: write-invalidate line kills

    # -- flush (flush-stop accounting, Section 5) ---------------------------
    flushed_lines: int = 0  #: valid lines examined by flush
    flushed_dirty_lines: int = 0
    flushed_dirty_bytes: int = 0
    flush_writeback_bytes: int = 0  #: bytes transferred by flush write-backs

    # -- workload context ----------------------------------------------------
    instructions: int = 0  #: dynamic instructions of the driving trace
    line_size: int = 0  #: line size of the cache these stats describe

    extra: dict = field(default_factory=dict)

    # -- core derived metrics -------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total references presented (reads + writes)."""
        return self.reads + self.writes

    @property
    def total_misses(self) -> int:
        """Demand fetches: the paper's effective miss count.

        Under fetch-on-write this equals tag read-misses plus tag
        write-misses; under no-fetch policies it is what remains after
        'eliminated' misses, because eliminated misses by definition fetch
        nothing (Section 4).
        """
        return self.fetches

    @property
    def read_miss_ratio(self) -> float:
        """Read misses (incl. partial) per read line-access."""
        return _ratio(
            self.read_misses + self.read_partial_misses, self.read_line_accesses
        )

    @property
    def write_miss_ratio(self) -> float:
        """Tag write-misses per write line-access."""
        return _ratio(self.write_misses, self.write_line_accesses)

    @property
    def miss_ratio(self) -> float:
        """Demand fetches per reference."""
        return _ratio(self.fetches, self.accesses)

    # -- Section 3 metrics ----------------------------------------------------

    @property
    def fraction_writes_to_dirty(self) -> float:
        """Fraction of all writes landing on already-dirty lines (Figs 1-2).

        For write-back caches this is the write-traffic reduction: every
        write *not* to an already-dirty line eventually costs one
        write-back transaction (1 - WB/WT transactions, Section 3).
        """
        return _ratio(self.writes_to_dirty_lines, self.write_line_accesses)

    # -- Section 4 metrics ----------------------------------------------------

    @property
    def write_miss_fraction(self) -> float:
        """Write misses as a fraction of all (tag) misses (Figs 10-11).

        Defined under fetch-on-write, where every tag miss fetches.
        """
        return _ratio(self.write_misses, self.read_misses + self.write_misses)

    # -- Section 5 metrics ----------------------------------------------------

    @property
    def fraction_victims_dirty(self) -> float:
        """Dirty victims per victim, execution only (Fig. 20 cold stop)."""
        return _ratio(self.dirty_victims, self.victims)

    @property
    def fraction_victims_dirty_flush(self) -> float:
        """Fig. 20's flush-stop variant: weighted average over execution
        victims and flushed lines."""
        return _ratio(
            self.dirty_victims + self.flushed_dirty_lines,
            self.victims + self.flushed_lines,
        )

    @property
    def fraction_bytes_dirty_in_dirty_victim(self) -> float:
        """Dirty bytes per dirty-victim line byte, execution only (Fig 21/24)."""
        return _ratio(
            self.dirty_victim_dirty_bytes, self.dirty_victims * self.line_size
        )

    @property
    def fraction_bytes_dirty_in_dirty_victim_flush(self) -> float:
        """Flush-stop variant of :attr:`fraction_bytes_dirty_in_dirty_victim`."""
        return _ratio(
            self.dirty_victim_dirty_bytes + self.flushed_dirty_bytes,
            (self.dirty_victims + self.flushed_dirty_lines) * self.line_size,
        )

    @property
    def fraction_bytes_dirty_per_victim_flush(self) -> float:
        """Dirty bytes averaged over *all* victims, flush stop (Figs 22/25)."""
        return _ratio(
            self.dirty_victim_dirty_bytes + self.flushed_dirty_bytes,
            (self.victims + self.flushed_lines) * self.line_size,
        )

    @property
    def backend_transactions(self) -> int:
        """Transactions out the back during execution (Figs 18-19):
        fetches, write-backs and write-throughs."""
        return self.fetches + self.writebacks + self.write_throughs

    @property
    def backend_bytes(self) -> int:
        """Bytes out the back during execution."""
        return self.fetch_bytes + self.writeback_bytes + self.write_through_bytes

    def transactions_per_instruction(self, include_flush: bool = False) -> float:
        """Back-end transactions per dynamic instruction (Fig. 18-19 y-axis)."""
        transactions = self.backend_transactions
        if include_flush:
            transactions += self.flushed_dirty_lines
        return _ratio(transactions, self.instructions)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form of every counter (JSON-safe for the result store).

        ``extra`` is shallow-copied so mutating the dict afterwards cannot
        alias back into the stats object.
        """
        payload = {}
        for spec in fields(CacheStats):
            value = getattr(self, spec.name)
            payload[spec.name] = dict(value) if spec.name == "extra" else value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheStats":
        """Inverse of :meth:`to_dict`.

        Unknown keys raise (a schema mismatch must invalidate a stored
        record, not silently drop data); missing keys fall back to the
        field defaults so older records without newer counters still load.
        """
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown CacheStats fields: {sorted(unknown)}")
        return cls(**payload)

    # -- bookkeeping -----------------------------------------------------------

    def validate_consistency(self) -> None:
        """Internal-consistency assertions used by the test suite."""
        assert self.read_hits + self.read_misses + self.read_partial_misses == (
            self.read_line_accesses
        ), "read classification must partition read accesses"
        assert self.write_hits + self.write_misses == self.write_line_accesses, (
            "write classification must partition write accesses"
        )
        assert self.fetches == (
            self.fetches_for_reads
            + self.fetches_for_partial_reads
            + self.fetches_for_writes
        ), "fetch causes must partition fetches"
        assert self.dirty_victims <= self.victims
        assert self.writes_to_dirty_lines <= self.write_hits
        assert self.flushed_dirty_lines <= self.flushed_lines
