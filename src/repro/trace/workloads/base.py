"""Workload framework: the builder the synthetic benchmarks emit into.

:class:`RefBuilder` accumulates references as parallel int lists (the
:class:`~repro.trace.trace.Trace` representation) and distributes dynamic
instruction counts over them so each workload reproduces its Table 1
instructions-per-data-reference ratio.  :class:`Workload` is the tiny
abstract base the six benchmark models derive from.
"""

import math
import random
import zlib
from abc import ABC, abstractmethod
from typing import List

import numpy as np

from repro.common.bitops import align_down
from repro.common.errors import ConfigurationError
from repro.trace.events import READ, WRITE
from repro.trace.trace import Trace

WORD = 4
DOUBLE = 8


class RefBuilder:
    """Accumulates a reference stream with instruction-count bookkeeping.

    ``instructions_per_ref`` is the workload's ratio of dynamic
    instructions to data references (Table 1 gives e.g. 484.5M / 187.6M for
    the whole suite).  Each emitted reference is charged
    ``instructions_per_ref`` instructions via a fractional accumulator, so
    the trace's total instruction count converges on the exact ratio.
    """

    def __init__(self, instructions_per_ref: float) -> None:
        if instructions_per_ref < 1.0:
            raise ConfigurationError(
                "instructions_per_ref must be >= 1 (each reference is issued "
                f"by an instruction); got {instructions_per_ref}"
            )
        self.instructions_per_ref = instructions_per_ref
        self.addresses: List[int] = []
        self.sizes: List[int] = []
        self.kinds: List[int] = []
        self.icounts: List[int] = []
        self._fraction = 0.0

    def __len__(self) -> int:
        return len(self.addresses)

    def _emit(self, address: int, size: int, kind: int) -> None:
        self._fraction += self.instructions_per_ref
        icount = int(self._fraction)
        self._fraction -= icount
        self.addresses.append(align_down(address, size))
        self.sizes.append(size)
        self.kinds.append(kind)
        self.icounts.append(max(1, icount))

    def _emit_icounts(self, count: int) -> List[int]:
        """Charge ``count`` references, returning their icounts.

        This is the *exact* scalar recurrence of :meth:`_emit`, kept
        sequential on purpose: the fractional accumulator rounds once per
        step, so a closed-form vectorisation (``floor(f0 + k*ipr)``) can
        differ in the last ulp and change traces bit-for-bit — which
        would silently invalidate every content-addressed stored result.
        When the ratio is integral the recurrence collapses to a constant
        and the loop is skipped entirely.
        """
        ipr = self.instructions_per_ref
        fraction = self._fraction
        if fraction == 0.0 and ipr == int(ipr):
            return [int(ipr)] * count
        icounts = []
        append = icounts.append
        for _ in range(count):
            total = fraction + ipr
            icount = int(total)
            fraction = total - icount
            append(icount if icount > 1 else 1)
        self._fraction = fraction
        return icounts

    def _emit_block(self, addresses: np.ndarray, size: int, kind: int) -> None:
        """Append a block of same-size, same-kind references at once.

        ``addresses`` is an ``int64`` array of unaligned addresses; the
        size-alignment of :meth:`_emit` is applied vectorised.  The
        public accumulator lists stay plain Python lists (the builder's
        documented representation), extended at C speed.
        """
        count = len(addresses)
        if count == 0:
            return
        aligned = addresses & ~np.int64(size - 1)
        self.addresses.extend(aligned.tolist())
        self.sizes.extend([size] * count)
        self.kinds.extend([kind] * count)
        self.icounts.extend(self._emit_icounts(count))

    # -- primitive accesses -------------------------------------------------

    def read(self, address: int, size: int = WORD) -> None:
        """Emit a load of ``size`` bytes (aligned down to ``size``)."""
        self._emit(address, size, READ)

    def write(self, address: int, size: int = WORD) -> None:
        """Emit a store of ``size`` bytes (aligned down to ``size``)."""
        self._emit(address, size, WRITE)

    def rmw(self, address: int, size: int = WORD) -> None:
        """Emit a read immediately followed by a write of the same word."""
        self._emit(address, size, READ)
        self._emit(address, size, WRITE)

    # -- composite patterns -------------------------------------------------

    def seq_read(self, base: int, count: int, size: int = WORD, stride: int = 0) -> None:
        """Sequential loads of ``count`` elements starting at ``base``.

        ``stride`` defaults to ``size`` (dense unit-stride access).
        Emitted as one vectorised block.
        """
        step = stride or size
        self._emit_block(self._strided(base, count, step), size, READ)

    def seq_write(self, base: int, count: int, size: int = WORD, stride: int = 0) -> None:
        """Sequential stores of ``count`` elements starting at ``base``.

        Emitted as one vectorised block.
        """
        step = stride or size
        self._emit_block(self._strided(base, count, step), size, WRITE)

    def seq_rmw(self, base: int, count: int, size: int = WORD, stride: int = 0) -> None:
        """Sequential read-modify-writes (the saxpy/daxpy destination idiom).

        Emitted as one vectorised block: addresses repeat pairwise and the
        kinds alternate read/write, exactly as the scalar loop produced.
        """
        step = stride or size
        if count == 0:
            return
        aligned = (self._strided(base, count, step) & ~np.int64(size - 1)).repeat(2)
        self.addresses.extend(aligned.tolist())
        self.sizes.extend([size] * (2 * count))
        self.kinds.extend([READ, WRITE] * count)
        self.icounts.extend(self._emit_icounts(2 * count))

    @staticmethod
    def _strided(base: int, count: int, step: int) -> np.ndarray:
        """The address sequence ``base + k*step`` as an ``int64`` array."""
        return np.int64(base) + np.arange(count, dtype=np.int64) * np.int64(step)

    def frame_enter(self, stack_top: int, saved_words: int) -> int:
        """Model a procedure call: push ``saved_words`` words, return new top.

        The stack grows downward.  Returns the new (lower) top-of-stack so
        nested calls compose.
        """
        new_top = stack_top - saved_words * WORD
        for index in range(saved_words):
            self._emit(new_top + index * WORD, WORD, WRITE)
        return new_top

    def frame_exit(self, stack_top: int, restored_words: int) -> int:
        """Model a return: pop ``restored_words`` words, return new top."""
        for index in range(restored_words):
            self._emit(stack_top + index * WORD, WORD, READ)
        return stack_top + restored_words * WORD

    def build(self, name: str) -> Trace:
        """Freeze the accumulated references into a :class:`Trace`."""
        return Trace(self.addresses, self.sizes, self.kinds, self.icounts, name=name)


class Workload(ABC):
    """A deterministic synthetic benchmark.

    Subclasses set the class attributes below and implement :meth:`_emit`.

    Attributes:
        name: short benchmark name (matches Table 1).
        description: the paper's one-line program type.
        instructions_per_ref: Table 1 dynamic-instruction / data-reference
            ratio for this program.
        paper_read_write_ratio: Table 1 reads-per-write, used by tests to
            check the model's mix.
    """

    name: str = ""
    description: str = ""
    instructions_per_ref: float = 3.0
    paper_read_write_ratio: float = 2.4

    def __init__(self, scale: float = 1.0, seed: int = 1991) -> None:
        if not 0 < scale < math.inf:
            raise ConfigurationError(
                f"scale must be a finite number > 0, got {scale!r}"
            )
        self.scale = scale
        self.seed = seed

    @abstractmethod
    def _emit(self, builder: RefBuilder, rng: random.Random) -> None:
        """Emit the reference stream into ``builder``."""

    def build(self) -> Trace:
        """Generate this workload's trace (deterministic in scale and seed)."""
        builder = RefBuilder(self.instructions_per_ref)
        # Salt the seed per workload with a *stable* hash: str.hash() is
        # randomised per process (PYTHONHASHSEED), which would make the
        # "same" trace differ between processes and poison the
        # content-addressed result store.
        name_salt = zlib.crc32(self.name.encode("utf-8"))
        rng = random.Random(self.seed ^ name_salt)
        self._emit(builder, rng)
        return builder.build(self.name)

    def _scaled(self, count: int, minimum: int = 1) -> int:
        """Scale an iteration count, never below ``minimum``."""
        return max(minimum, int(round(count * self.scale)))
