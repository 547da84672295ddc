"""Materialised reference streams, stored array-native.

A :class:`Trace` stores a reference stream as four parallel numpy arrays
(``int64`` addresses, ``int32`` sizes, ``int8`` kinds, ``int32``
icounts).  The array form is what the vectorised simulator kernel
(:mod:`repro.cache.vecsim`) and the shared-memory trace transport
(:mod:`repro.exec.shm`) consume — both are zero-copy over these arrays.

The historical list-based API is preserved: ``trace.addresses`` (and
``sizes``/``kinds``/``icounts``) return plain Python lists, materialised
lazily and cached, because the per-reference simulator loops iterate them
with ``zip`` — which is substantially faster than element-indexing numpy
arrays from Python.  Traces are immutable by convention; the arrays are
marked read-only to protect shared-memory pages.
"""

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.common.errors import SimulationError
from repro.trace.events import READ, WRITE, MemRef

#: Canonical dtypes of the four component arrays, in layout order.  The
#: shared-memory transport packs pages in exactly this order (descending
#: alignment, so every array lands on a naturally aligned offset).
ARRAY_DTYPES = (
    ("addresses", np.int64),
    ("sizes", np.int32),
    ("icounts", np.int32),
    ("kinds", np.int8),
)


def _component(values: Sequence, dtype) -> np.ndarray:
    """Coerce one component to its canonical 1-D array (zero-copy when
    already in canonical form)."""
    try:
        array = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SimulationError(f"trace component is not integer-like: {exc}") from exc
    if array.ndim != 1:
        raise SimulationError("trace components must be one-dimensional")
    return array


class Trace:
    """An immutable-by-convention sequence of memory references."""

    __slots__ = (
        "name",
        "_addresses",
        "_sizes",
        "_kinds",
        "_icounts",
        "_address_list",
        "_size_list",
        "_kind_list",
        "_icount_list",
    )

    def __init__(
        self,
        addresses: Sequence[int],
        sizes: Sequence[int],
        kinds: Sequence[int],
        icounts: Sequence[int],
        name: str = "",
    ) -> None:
        self.name = name
        self._addresses = _component(addresses, np.int64)
        self._sizes = _component(sizes, np.int32)
        self._icounts = _component(icounts, np.int32)
        self._kinds = _component(kinds, np.int8)
        lengths = {
            len(self._addresses),
            len(self._sizes),
            len(self._kinds),
            len(self._icounts),
        }
        if len(lengths) != 1:
            raise SimulationError("trace component lists have differing lengths")
        for array in (self._addresses, self._sizes, self._kinds, self._icounts):
            array.flags.writeable = False
        # List views are materialised on first access; seed them when the
        # caller handed us lists so list-heavy code pays no conversion.
        self._address_list = addresses if type(addresses) is list else None
        self._size_list = sizes if type(sizes) is list else None
        self._kind_list = kinds if type(kinds) is list else None
        self._icount_list = icounts if type(icounts) is list else None

    @classmethod
    def from_refs(cls, refs: Iterable[MemRef], name: str = "") -> "Trace":
        """Build a trace by draining an iterable of :class:`MemRef`."""
        addresses: List[int] = []
        sizes: List[int] = []
        kinds: List[int] = []
        icounts: List[int] = []
        for ref in refs:
            addresses.append(ref.address)
            sizes.append(ref.size)
            kinds.append(ref.kind)
            icounts.append(ref.icount)
        return cls(addresses, sizes, kinds, icounts, name=name)

    @classmethod
    def from_arrays(
        cls,
        addresses: np.ndarray,
        sizes: np.ndarray,
        kinds: np.ndarray,
        icounts: np.ndarray,
        name: str = "",
    ) -> "Trace":
        """Wrap canonical-dtype arrays without copying (shared-memory path)."""
        return cls(addresses, sizes, kinds, icounts, name=name)

    # -- list views (the historical hot-loop API) ---------------------------

    @property
    def addresses(self) -> List[int]:
        """Reference addresses as a plain list (cached)."""
        if self._address_list is None:
            self._address_list = self._addresses.tolist()
        return self._address_list

    @property
    def sizes(self) -> List[int]:
        """Reference sizes as a plain list (cached)."""
        if self._size_list is None:
            self._size_list = self._sizes.tolist()
        return self._size_list

    @property
    def kinds(self) -> List[int]:
        """Reference kinds as a plain list (cached)."""
        if self._kind_list is None:
            self._kind_list = self._kinds.tolist()
        return self._kind_list

    @property
    def icounts(self) -> List[int]:
        """Per-reference instruction counts as a plain list (cached)."""
        if self._icount_list is None:
            self._icount_list = self._icounts.tolist()
        return self._icount_list

    # -- array views (the vectorised API; read-only, zero-copy) -------------

    @property
    def address_array(self) -> np.ndarray:
        """Addresses as a read-only ``int64`` array."""
        return self._addresses

    @property
    def size_array(self) -> np.ndarray:
        """Sizes as a read-only ``int32`` array."""
        return self._sizes

    @property
    def kind_array(self) -> np.ndarray:
        """Kinds as a read-only ``int8`` array."""
        return self._kinds

    @property
    def icount_array(self) -> np.ndarray:
        """Instruction counts as a read-only ``int32`` array."""
        return self._icounts

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self) -> Iterator[MemRef]:
        for address, size, kind, icount in zip(
            self.addresses, self.sizes, self.kinds, self.icounts
        ):
            yield MemRef(address, size, kind, icount)

    def __getitem__(self, index) -> "MemRef":
        if isinstance(index, slice):
            return Trace(
                self._addresses[index],
                self._sizes[index],
                self._kinds[index],
                self._icounts[index],
                name=self.name,
            )
        return MemRef(
            int(self._addresses[index]),
            int(self._sizes[index]),
            int(self._kinds[index]),
            int(self._icounts[index]),
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, refs={len(self)}, "
            f"reads={self.read_count}, writes={self.write_count}, "
            f"instructions={self.instruction_count})"
        )

    @property
    def read_count(self) -> int:
        """Number of load references."""
        return int(np.count_nonzero(self._kinds == READ))

    @property
    def write_count(self) -> int:
        """Number of store references."""
        return int(np.count_nonzero(self._kinds == WRITE))

    @property
    def instruction_count(self) -> int:
        """Total dynamic instructions modelled by this trace."""
        return int(self._icounts.sum(dtype=np.int64))

    @property
    def byte_count(self) -> int:
        """Total bytes transferred by all references."""
        return int(self._sizes.sum(dtype=np.int64))

    def writes_only(self) -> "Trace":
        """A sub-trace holding only store references, preserving order.

        ``icount`` values of skipped loads are folded into the *following*
        store, and loads trailing the last store fold backwards into that
        last store, so instruction totals are preserved exactly; the
        write-buffer and write-cache models (Section 3) consume these.
        The degenerate case of a trace with no stores at all returns an
        empty trace (its instruction count is necessarily dropped — there
        is no store to carry it).
        """
        store_positions = np.flatnonzero(self._kinds == WRITE)
        name = f"{self.name}:writes"
        if len(store_positions) == 0:
            return Trace([], [], [], [], name=name)
        cumulative = np.cumsum(self._icounts, dtype=np.int64)
        boundaries = cumulative[store_positions]
        icounts = np.diff(boundaries, prepend=0)
        # Trailing loads after the last store: fold their instructions
        # into the last emitted store instead of silently dropping them.
        icounts[-1] += int(cumulative[-1]) - int(boundaries[-1])
        return Trace(
            self._addresses[store_positions],
            self._sizes[store_positions],
            self._kinds[store_positions],
            icounts,
            name=name,
        )

    def concat(self, other: "Trace", name: Optional[str] = None) -> "Trace":
        """Concatenate two traces (e.g. to model phase sequences)."""
        return Trace(
            np.concatenate([self._addresses, other._addresses]),
            np.concatenate([self._sizes, other._sizes]),
            np.concatenate([self._kinds, other._kinds]),
            np.concatenate([self._icounts, other._icounts]),
            name=name if name is not None else f"{self.name}+{other.name}",
        )

    def touched_lines(self, line_size: int) -> int:
        """Number of distinct cache lines of ``line_size`` bytes touched.

        This is the compulsory-miss footprint, used by tests to verify the
        workload models' working-set sizes.
        """
        shift = line_size.bit_length() - 1
        first = self._addresses >> shift
        last = (self._addresses + self._sizes - 1) >> shift
        return len(np.unique(np.concatenate([first, last])))

    def address_span(self) -> int:
        """Bytes between the lowest touched address and one past the
        highest touched byte (the true footprint extent, even when the
        widest reference is not the highest one)."""
        if len(self._addresses) == 0:
            return 0
        ends = self._addresses + self._sizes
        return int(ends.max()) - int(self._addresses.min())
