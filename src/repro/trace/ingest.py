"""Streaming, chunked, array-native trace ingestion.

:func:`repro.trace.io.read_trace` materialises one ``MemRef`` object per
line and holds the whole trace in RAM — fine for the synthetic corpus,
hopeless for externally captured traces.  This module is the scale path:

- binary block reads (``read_bytes`` at a time) with a tail carry, so a
  line split across block boundaries is reassembled and peak memory
  stays bounded by one block plus one output chunk;
- vectorised numpy parsing of three formats: the repro text format
  (``r <hex-address> <size> [icount]``), the classic Dinero ``din``
  format (``<label> <hex-address>``), and CSV with the text-format
  columns and an optional header row;
- transparent gzip decided by magic-byte sniffing — the file *content*
  decides, not the filename — with a UTF-8 BOM tolerated and CRLF line
  endings treated as whitespace;
- :exc:`~repro.common.errors.TraceFormatError` with a global line number
  for every malformed input — never a bare ``ValueError``;
- bounded output: :func:`iter_trace_chunks` yields
  :class:`~repro.trace.trace.Trace` chunks of at most ``chunk_refs``
  references each.  The catalog streams them to disk and hashes them
  without holding the whole capture.  Simulation always runs whole
  traces: :func:`ingest_trace` concatenates the chunks once, and the
  catalog's ``load`` reads a stored stream back whole.

Content identity: :func:`pack_refs` defines the canonical packed byte
encoding of a reference stream and :class:`TraceHasher` its SHA-256 —
the trace's *content hash*, invariant to source format, chunking, and
compression.  The catalog (:mod:`repro.trace.catalog`) and the
``ingested:<hash>`` workload name key on it, which is what makes
ingested traces dedup across the pool and store like generated ones.
"""

import gzip
import hashlib
import zlib
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, TraceFormatError
from repro.trace.trace import Trace

#: Default references per emitted chunk (~4.5 MB of component arrays).
DEFAULT_CHUNK_REFS = 1 << 18

#: Default bytes per block read; also the memory bound of the parser.
DEFAULT_READ_BYTES = 1 << 22

#: Accepted values for the ``format`` argument.
INGEST_FORMATS = ("auto", "text", "din", "csv")

GZIP_MAGIC = b"\x1f\x8b"
_BOM = b"\xef\xbb\xbf"

#: Canonical packed record encoding hashed by :class:`TraceHasher`:
#: little-endian, no padding, one record per reference in stream order.
PACK_DTYPE = np.dtype(
    [("address", "<i8"), ("size", "<i4"), ("icount", "<i4"), ("kind", "i1")]
)

_HEX_VALUES = np.full(256, -1, dtype=np.int64)
for _char in b"0123456789":
    _HEX_VALUES[_char] = _char - ord("0")
for _char in b"abcdef":
    _HEX_VALUES[_char] = _char - ord("a") + 10
for _char in b"ABCDEF":
    _HEX_VALUES[_char] = _char - ord("A") + 10
_DEC_VALUES = np.full(256, -1, dtype=np.int64)
for _char in b"0123456789":
    _DEC_VALUES[_char] = _char - ord("0")
_POW10 = 10 ** np.arange(19, dtype=np.int64)

#: Whitespace (space, tab, CR, LF) as one table lookup per byte.
_WS_LUT = np.zeros(256, dtype=bool)
for _char in b" \t\r\n":
    _WS_LUT[_char] = True

#: Digit caps keeping every parsed value inside an int64: 16 hex digits
#: can wrap negative (caught by the address >= 0 validation), anything
#: longer is rejected as an overlong field before decoding.
_MAX_HEX_DIGITS = 16
_MAX_DEC_DIGITS = 18


def _fail(line_number: int, message: str):
    raise TraceFormatError(f"line {line_number}: {message}")


# ---------------------------------------------------------------------------
# Byte source: gzip sniffing + bounded block reads.
# ---------------------------------------------------------------------------


class _PrependedReader:
    """Push sniffed magic bytes back onto an unseekable stream."""

    def __init__(self, head: bytes, stream):
        self._head = head
        self._stream = stream

    def read(self, n: int = -1) -> bytes:
        if self._head:
            if n is None or n < 0:
                data = self._head + self._stream.read()
                self._head = b""
                return data
            data, self._head = self._head[:n], self._head[n:]
            if len(data) < n:
                data += self._stream.read(n - len(data))
            return data
        return self._stream.read(n)


class _ByteSource:
    """Binary block reader over a path or file object.

    Gzip is detected by magic bytes regardless of the name, and every
    read error from a truncated or corrupt compressed stream surfaces as
    :exc:`TraceFormatError` carrying the line the parser had reached.
    """

    def __init__(self, source):
        if hasattr(source, "read"):
            raw = source
            self._owns_raw = False
        else:
            raw = open(source, "rb")
            self._owns_raw = True
        magic = raw.read(2)
        try:
            raw.seek(0)
        except (OSError, AttributeError):
            raw = _PrependedReader(magic, raw)
        self._raw = raw
        if magic == GZIP_MAGIC:
            self._stream = gzip.GzipFile(fileobj=raw)
        else:
            self._stream = raw

    def read(self, n: int, line_number: int) -> bytes:
        try:
            return self._stream.read(n)
        except (EOFError, OSError, zlib.error) as exc:
            _fail(line_number, f"truncated or corrupt gzip stream ({exc})")

    def close(self) -> None:
        if self._stream is not self._raw:
            self._stream.close()
        if self._owns_raw:
            self._raw.close()


# ---------------------------------------------------------------------------
# Vectorised tokeniser.
# ---------------------------------------------------------------------------


class _Lines:
    """Token/line structure of one parse buffer.

    The buffer is a ``uint8`` array that always ends with a newline (the
    driver appends a virtual one at EOF).  Whitespace is space, tab, CR
    (so CRLF files tokenise identically to LF files) and LF.  Matching
    the line readers in :mod:`repro.trace.io`, a ``#`` comments a line
    only when it is the first non-blank character.
    """

    __slots__ = (
        "buf",
        "first_line",
        "newline_positions",
        "line_count",
        "tok_start",
        "tok_length",
        "tok_line",
        "line_tokens",
        "line_first_token",
        "data_lines",
    )

    def __init__(self, buf: np.ndarray, first_line: int):
        self.buf = buf
        self.first_line = first_line
        self.newline_positions = np.flatnonzero(buf == 10)
        self.line_count = len(self.newline_positions)
        ws = _WS_LUT[buf]
        nonws = ~ws
        prev_ws = np.empty(len(buf), dtype=bool)
        prev_ws[0] = True
        prev_ws[1:] = ws[:-1]
        self.tok_start = np.flatnonzero(nonws & prev_ws)
        next_ws = np.empty(len(buf), dtype=bool)
        next_ws[-1] = True
        next_ws[:-1] = ws[1:]
        ends = np.flatnonzero(nonws & next_ws) + 1
        self.tok_length = ends - self.tok_start
        # Tokens never sit on a newline, so the count of newlines before
        # a token's start byte is exactly its zero-based line index.
        self.tok_line = np.searchsorted(self.newline_positions, self.tok_start)
        self.line_tokens = np.bincount(self.tok_line, minlength=self.line_count)
        self.line_first_token = np.cumsum(self.line_tokens) - self.line_tokens
        populated = np.flatnonzero(self.line_tokens > 0)
        if len(populated):
            first = self.tok_start[self.line_first_token[populated]]
            populated = populated[self.buf[first] != ord("#")]
        self.data_lines = populated

    def line_number(self, line_index) -> int:
        return self.first_line + int(line_index)

    def token_text(self, token_index) -> str:
        start = int(self.tok_start[token_index])
        length = int(self.tok_length[token_index])
        return self.buf[start : start + length].tobytes().decode("ascii", "replace")

    def line_text(self, line_index) -> str:
        newlines = self.newline_positions
        start = 0 if line_index == 0 else int(newlines[line_index - 1]) + 1
        end = int(newlines[line_index])
        return self.buf[start:end].tobytes().decode("ascii", "replace").strip()


def _parse_numbers(lines: _Lines, tokens: np.ndarray, base: int, what: str):
    """Decode the given tokens as integers, vectorised.

    A leading ``-`` is accepted so that negative sizes and addresses
    fail *validation* with a precise line-numbered message rather than
    lexing; hex accepts an optional ``0x`` prefix.  Returns
    ``(values, token_lines)`` as int64 arrays.
    """
    if not len(tokens):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    buf = lines.buf
    starts = lines.tok_start[tokens]
    lengths = lines.tok_length[tokens]
    token_lines = lines.tok_line[tokens]
    negative = buf[starts] == ord("-")
    if negative.any():
        starts = starts + negative
        lengths = lengths - negative
    if base == 16:
        lut, max_digits = _HEX_VALUES, _MAX_HEX_DIGITS
        # The buffer ends with a newline, so starts + 1 is always in range.
        prefixed = (
            (lengths >= 2)
            & (buf[starts] == ord("0"))
            & ((buf[np.minimum(starts + 1, len(buf) - 1)] | 32) == ord("x"))
        )
        if prefixed.any():
            starts = starts + 2 * prefixed
            lengths = lengths - 2 * prefixed
    else:
        lut, max_digits = _DEC_VALUES, _MAX_DEC_DIGITS
    if ((lengths <= 0) | (lengths > max_digits)).any():
        empty = lengths <= 0
        if empty.any():
            bad = int(np.flatnonzero(empty)[0])
            _fail(
                lines.line_number(token_lines[bad]),
                f"invalid {what} {lines.token_text(tokens[bad])!r}",
            )
        bad = int(np.flatnonzero(lengths > max_digits)[0])
        _fail(
            lines.line_number(token_lines[bad]),
            f"{what} field too long ({int(lengths[bad])} digits): "
            f"{lines.token_text(tokens[bad])!r}",
        )
    width = int(lengths.max())
    if width == 1:
        # Single-digit batch (the usual shape of size/icount columns).
        values = lut[buf[starts]]
        if (values < 0).any():
            bad = int(np.flatnonzero(values < 0)[0])
            _fail(
                lines.line_number(token_lines[bad]),
                f"invalid {what} {lines.token_text(tokens[bad])!r}",
            )
        if negative.any():
            values = np.where(negative, -values, values)
        return values, token_lines
    # Padded 2-D decode: one (token, digit-column) grid bounded by the
    # overlong check above, so no per-digit scatter/gather bookkeeping.
    cols = np.arange(width)
    index = starts[:, None] + cols
    np.minimum(index, len(buf) - 1, out=index)  # padding columns only
    digits = lut[buf[index]]
    mask = cols < lengths[:, None]
    digits = np.where(mask, digits, 0)
    if (digits < 0).any():
        bad = int(np.flatnonzero((digits < 0).any(axis=1))[0])
        _fail(
            lines.line_number(token_lines[bad]),
            f"invalid {what} {lines.token_text(tokens[bad])!r}",
        )
    if base == 16 and width < 16:
        # Decode every token as if left-padded to ``width`` digits with
        # trailing zeros (constant per-column shifts), then divide the
        # padding back out per row.  Safe below 16 digits: the padded
        # value uses at most 4*width < 64 bits.
        padded = (digits << ((width - 1 - cols) * 4)).sum(axis=1)
        values = padded >> ((width - lengths) * 4)
    elif base == 16:
        place = np.maximum(lengths[:, None] - 1 - cols, 0)
        values = np.where(mask, digits << (place * 4), 0).sum(axis=1)
    else:
        padded = (digits * _POW10[width - 1 - cols]).sum(axis=1)
        values = padded // _POW10[width - lengths]
    if negative.any():
        values = np.where(negative, -values, values)
    return values, token_lines


def _validate_refs(first_line, data_lines, addresses, sizes, icounts) -> None:
    """The :class:`~repro.trace.events.MemRef` invariants, vectorised,
    with the first failing reference reported by its source line
    (``first_line`` plus its zero-based buffer line index)."""
    bad = (sizes != 4) & (sizes != 8)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        _fail(
            first_line + int(data_lines[index]),
            f"reference size must be one of (4, 8), got {int(sizes[index])}",
        )
    bad = addresses < 0
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        _fail(
            first_line + int(data_lines[index]),
            f"address must be non-negative, got {int(addresses[index])}",
        )
    bad = (addresses & (sizes - 1)) != 0
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        _fail(
            first_line + int(data_lines[index]),
            f"address {int(addresses[index]):#x} is not aligned to its "
            f"size {int(sizes[index])}",
        )
    bad = (icounts < 1) | (icounts > 2**31 - 1)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        _fail(
            first_line + int(data_lines[index]),
            f"icount must be a positive 32-bit count, got {int(icounts[index])}",
        )


# ---------------------------------------------------------------------------
# Format parsers.
# ---------------------------------------------------------------------------


def _parse_text_buffer(lines: _Lines, skip_header: bool = False):
    """Parse text-format lines; returns component arrays or ``None``
    when the buffer carries no data lines."""
    data = lines.data_lines
    if skip_header and len(data):
        first_token = lines.line_first_token[data[0]]
        if lines.token_text(first_token).lower() == "kind":
            data = data[1:]
    if not len(data):
        return None
    counts = lines.line_tokens[data]
    bad = (counts < 3) | (counts > 4)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        _fail(
            lines.line_number(data[index]),
            f"expected 3-4 fields, got {lines.line_text(data[index])!r}",
        )
    first_tok = lines.line_first_token[data]
    kind_length = lines.tok_length[first_tok]
    kind_char = lines.buf[lines.tok_start[first_tok]] | 32
    bad = (kind_length != 1) | ~((kind_char == ord("r")) | (kind_char == ord("w")))
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        _fail(
            lines.line_number(data[index]),
            f"unknown access kind {lines.token_text(first_tok[index])!r}",
        )
    kinds = (kind_char == ord("w")).astype(np.int8)
    addresses, _ = _parse_numbers(lines, first_tok + 1, 16, "address")
    sizes, _ = _parse_numbers(lines, first_tok + 2, 10, "size")
    icounts = np.ones(len(data), dtype=np.int64)
    has_icount = counts == 4
    if has_icount.any():
        icounts[has_icount] = _parse_numbers(
            lines, (first_tok + 3)[has_icount], 10, "icount"
        )[0]
    _validate_refs(lines.first_line, data, addresses, sizes, icounts)
    return addresses, sizes, kinds, icounts


def _decode_columns(grid, c0, c1, base):
    """Decode one fixed-width digit field across every grid row; ``None``
    when any byte is not a digit of ``base`` (the caller falls back)."""
    lut = _HEX_VALUES if base == 16 else _DEC_VALUES
    digits = lut[grid[:, c0:c1]]
    if (digits < 0).any():
        return None
    width = c1 - c0
    if base == 16:
        return (digits << ((width - 1 - np.arange(width)) * 4)).sum(axis=1)
    return (digits * _POW10[width - 1 - np.arange(width)]).sum(axis=1)


def _decode_stride(buf, starts, c0, c1, base):
    """Decode a fixed-column digit field straight from the buffer,
    Horner-style, one strided gather per column — no row matrix at all.
    ``None`` when any byte is not a digit (invalid input *or* a line
    whose spaces sit elsewhere; the caller distinguishes)."""
    lut = _HEX_VALUES if base == 16 else _DEC_VALUES
    index = starts + c0
    values = lut[buf[index]]
    if (values < 0).any():
        return None
    for _ in range(c0 + 1, c1):
        index += 1
        digits = lut[buf[index]]
        if (digits < 0).any():
            return None
        if base == 16:
            values = (values << 4) | digits
        else:
            values = values * 10 + digits
    return values


def _layout_bounds(cols, length):
    """Validate a space layout and return field boundaries, or ``None``.

    A legal layout is ``<kind> <field> <field>[ <field>]``: the kind
    char at column 0, single spaces, nonempty digit fields of bounded
    width.
    """
    if (
        len(cols) not in (2, 3)
        or cols[0] != 1
        or cols[-1] == length - 1
        or (np.diff(cols) == 1).any()
    ):
        return None
    bounds = [int(col) for col in cols] + [length]
    if bounds[1] - 2 > _MAX_HEX_DIGITS:
        return None
    if max(b - a - 1 for a, b in zip(bounds[1:], bounds[2:])) > _MAX_DEC_DIGITS:
        return None
    return bounds


def _stride_group(buf, starts, length):
    """Decode one same-length line group assuming every line shares the
    first line's space pattern; ``None`` sends the group to the matrix
    path (mixed patterns or invalid bytes — it tells them apart)."""
    head = int(starts[0])
    bounds = _layout_bounds(np.flatnonzero(buf[head : head + length] == 32), length)
    if bounds is None:
        return None
    for col in bounds[:-1]:
        if not (buf[starts + col] == 32).all():
            return None
    addresses = _decode_stride(buf, starts, 2, bounds[1], 16)
    if addresses is None:
        return None
    sizes = _decode_stride(buf, starts, bounds[1] + 1, bounds[2], 10)
    if sizes is None:
        return None
    icounts = None
    if len(bounds) == 4:
        icounts = _decode_stride(buf, starts, bounds[2] + 1, bounds[3], 10)
        if icounts is None:
            return None
    return addresses, sizes, icounts


_BAIL = object()  # matrix-path sentinel: hand the whole buffer to the tokenizer


def _grid_group(buf, starts, length):
    """Decode one same-length line group with mixed space patterns: the
    lines become a byte matrix, split into per-pattern subgroups by a
    64-bit space-mask key.  Returns ``(addresses, sizes, icounts)`` in
    group order, or :data:`_BAIL` on anything irregular."""
    grid = buf[starts[:, None] + np.arange(length)]
    space = grid == ord(" ")
    keys = space.astype(np.uint64) @ (
        np.uint64(1) << np.arange(length, dtype=np.uint64)
    )
    _, inverse = np.unique(keys, return_inverse=True)
    addresses = np.empty(len(starts), dtype=np.int64)
    sizes = np.empty(len(starts), dtype=np.int64)
    icounts = np.ones(len(starts), dtype=np.int64)
    for key in range(int(inverse.max()) + 1):
        rows = np.flatnonzero(inverse == key)
        sub = grid[rows]
        bounds = _layout_bounds(np.flatnonzero(space[rows[0]]), length)
        if bounds is None:
            return _BAIL
        decoded = _decode_columns(sub, 2, bounds[1], 16)
        if decoded is None:
            return _BAIL
        addresses[rows] = decoded
        decoded = _decode_columns(sub, bounds[1] + 1, bounds[2], 10)
        if decoded is None:
            return _BAIL
        sizes[rows] = decoded
        if len(bounds) == 4:
            decoded = _decode_columns(sub, bounds[2] + 1, bounds[3], 10)
            if decoded is None:
                return _BAIL
            icounts[rows] = decoded
    return addresses, sizes, icounts


def _parse_text_fast(buf: np.ndarray, first_line: int):
    """Structural fast path for regular text-format buffers.

    Real trace files are overwhelmingly regular: every line is
    ``<kind> <hex-address> <size>[ <icount>]`` with single spaces.
    Data lines are grouped by (length, space-pattern) and each group
    decodes as one dense byte matrix with fixed field columns — a
    handful of whole-array passes instead of per-token gather
    bookkeeping.  Returns ``(parsed, line_count)``, where ``parsed`` is
    ``None`` for a buffer of only comments and blanks; or ``None`` on
    *any* irregularity (tabs or CR in a data line, extra spaces, ``0x``
    prefixes, non-digit bytes, overlong fields, wrong field counts...)
    — the caller then reruns the generic tokenizer, which either
    accepts the oddity or raises the precise line-numbered error.
    """
    newline_positions = np.flatnonzero(buf == 10)
    line_count = len(newline_positions)
    line_starts = np.empty(line_count, dtype=np.int64)
    line_starts[0] = 0
    line_starts[1:] = newline_positions[:-1] + 1
    first = buf[line_starts]  # a blank line's first byte is its newline
    lowered = first | 32
    is_data = (lowered == ord("r")) | (lowered == ord("w"))
    if not (is_data | (first == 10) | (first == ord("#"))).all():
        return None
    data = np.flatnonzero(is_data)
    if not len(data):
        return None, line_count
    refs = len(data)
    addresses = np.empty(refs, dtype=np.int64)
    sizes = np.empty(refs, dtype=np.int64)
    kinds = (lowered[data] == ord("w")).astype(np.int8)
    icounts = np.ones(refs, dtype=np.int64)
    starts = line_starts[data]
    lengths = newline_positions[data] - starts
    # A legal regular line is at most 1+1+16+1+18+1+18 = 56 bytes; the
    # 64-bit pattern keys in the matrix path also rely on length <= 63.
    if int(lengths.max()) > 63:
        return None
    for length in np.flatnonzero(np.bincount(lengths)):
        members = np.flatnonzero(lengths == length)
        group_starts = starts[members]
        group = _stride_group(buf, group_starts, int(length))
        if group is None:
            group = _grid_group(buf, group_starts, int(length))
            if group is _BAIL:
                return None
        group_addresses, group_sizes, group_icounts = group
        addresses[members] = group_addresses
        sizes[members] = group_sizes
        if group_icounts is not None:
            icounts[members] = group_icounts
    _validate_refs(first_line, data, addresses, sizes, icounts)
    return (addresses, sizes, kinds, icounts), line_count


class _TextParser:
    format = "text"

    def munge(self, buf: np.ndarray) -> np.ndarray:
        return buf

    def parse_fast(self, buf: np.ndarray, first_line: int):
        return _parse_text_fast(buf, first_line)

    def parse(self, lines: _Lines):
        return _parse_text_buffer(lines)


class _CsvParser:
    """The text-format columns, comma-separated, with an optional
    ``kind,address,size[,icount]`` header row."""

    format = "csv"

    def __init__(self):
        self._header_pending = True

    def munge(self, buf: np.ndarray) -> np.ndarray:
        return np.where(buf == ord(","), np.uint8(32), buf)

    def parse(self, lines: _Lines):
        parsed = _parse_text_buffer(lines, skip_header=self._header_pending)
        if len(lines.data_lines):
            self._header_pending = False
        return parsed


class _DinParser:
    """Classic Dinero ``<label> <hex-address>``: labels 0/1 are data
    reads/writes, label 2 an instruction fetch folded into the next data
    reference's icount (carried across buffer and chunk boundaries;
    trailing fetches at EOF are dropped, matching ``iter_din_lines``)."""

    format = "din"

    def __init__(self, access_size: int = 4):
        self.access_size = access_size
        self.pending = 0

    def munge(self, buf: np.ndarray) -> np.ndarray:
        return buf

    def parse(self, lines: _Lines):
        data = lines.data_lines
        if not len(data):
            return None
        counts = lines.line_tokens[data]
        bad = counts < 2
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            _fail(lines.line_number(data[index]), "expected 'label address'")
        first_tok = lines.line_first_token[data]
        labels, _ = _parse_numbers(lines, first_tok, 10, "din label")
        addresses, _ = _parse_numbers(lines, first_tok + 1, 16, "address")
        bad = (labels < 0) | (labels > 2)
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            _fail(
                lines.line_number(data[index]),
                f"unknown din label {int(labels[index])}",
            )
        fetch = labels == 2
        refs = np.flatnonzero(~fetch)
        fetches_before = np.cumsum(fetch)
        if not len(refs):
            self.pending += int(fetches_before[-1])
            return None
        at_ref = fetches_before[refs]
        icounts = np.empty(len(refs), dtype=np.int64)
        icounts[0] = self.pending + int(at_ref[0]) + 1
        icounts[1:] = np.diff(at_ref) + 1
        self.pending = int(fetches_before[-1] - at_ref[-1])
        aligned = addresses[refs] & ~(self.access_size - 1)
        kinds = (labels[refs] == 1).astype(np.int8)
        sizes = np.full(len(refs), self.access_size, dtype=np.int64)
        _validate_refs(lines.first_line, data[refs], aligned, sizes, icounts)
        return aligned, sizes, kinds, icounts


def _make_parser(format: str, access_size: int):
    if format == "text":
        return _TextParser()
    if format == "csv":
        return _CsvParser()
    if format == "din":
        return _DinParser(access_size)
    raise ConfigurationError(
        f"unknown trace format {format!r}; expected one of {INGEST_FORMATS}"
    )


def _format_from_name(source) -> Optional[str]:
    """Filename hint: only ``.din``/``.csv`` are authoritative (after
    stripping ``.gz``); everything else falls through to content sniff."""
    name = getattr(source, "name", source)
    if not isinstance(name, (str, bytes)):
        return None
    name = name.decode("utf-8", "replace") if isinstance(name, bytes) else str(name)
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    if name.endswith(".din"):
        return "din"
    if name.endswith(".csv"):
        return "csv"
    return None


def _sniff_buffer(buf: np.ndarray) -> Optional[str]:
    """Decide the format from the first populated non-comment line;
    ``None`` when the buffer holds only blanks and comments.

    Only a bounded prefix is tokenised — the first data line is all the
    sniff reads, so a large first block need not be scanned twice.  A
    prefix of nothing but comments falls back to the full buffer.
    """
    prefix = 1 << 16
    if len(buf) > prefix:
        cut = np.flatnonzero(buf[:prefix] == 10)
        if len(cut):
            sniffed = _sniff_lines(_Lines(buf[: int(cut[-1]) + 1], 1))
            if sniffed is not None:
                return sniffed
    return _sniff_lines(_Lines(buf, 1))


def _sniff_lines(lines: _Lines) -> Optional[str]:
    if not len(lines.data_lines):
        return None
    first_line = lines.data_lines[0]
    if "," in lines.line_text(first_line):
        return "csv"
    first_token = lines.token_text(lines.line_first_token[first_line])
    if first_token.lower() in ("r", "w"):
        return "text"
    return "din"


# ---------------------------------------------------------------------------
# Chunk assembly and the streaming driver.
# ---------------------------------------------------------------------------


class _ChunkAssembler:
    """Accumulate parsed component arrays and emit exact-size chunks."""

    def __init__(self, chunk_refs: int, name: str):
        self.chunk_refs = chunk_refs
        self.name = name
        self.buffers = []
        self.buffered = 0
        self.emitted = 0

    def add(self, addresses, sizes, kinds, icounts) -> Iterator[Trace]:
        self.buffers.append((addresses, sizes, kinds, icounts))
        self.buffered += len(addresses)
        while self.buffered >= self.chunk_refs:
            yield self._emit(self.chunk_refs)

    def finish(self) -> Iterator[Trace]:
        if self.buffered:
            yield self._emit(self.buffered)

    def _emit(self, count: int) -> Trace:
        merged = [np.concatenate([b[i] for b in self.buffers]) for i in range(4)]
        self.buffers = []
        if count < len(merged[0]):
            self.buffers = [tuple(array[count:] for array in merged)]
        self.buffered -= count
        addresses, sizes, kinds, icounts = (array[:count] for array in merged)
        chunk = Trace.from_arrays(
            np.ascontiguousarray(addresses, dtype=np.int64),
            np.ascontiguousarray(sizes, dtype=np.int32),
            np.ascontiguousarray(kinds, dtype=np.int8),
            np.ascontiguousarray(icounts, dtype=np.int32),
            name=f"{self.name}#{self.emitted}",
        )
        self.emitted += 1
        return chunk


def iter_trace_chunks(
    source,
    format: str = "auto",
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    access_size: int = 4,
    name: Optional[str] = None,
    read_bytes: int = DEFAULT_READ_BYTES,
) -> Iterator[Trace]:
    """Stream ``source`` as :class:`Trace` chunks of ``chunk_refs`` refs.

    ``source`` is a path or a binary file object.  ``format`` is one of
    :data:`INGEST_FORMATS`; ``"auto"`` uses a ``.din``/``.csv`` filename
    hint (after stripping ``.gz``) and otherwise sniffs the first data
    line.  ``read_bytes`` bounds the parser's working set and is mainly
    a test knob — shrinking it forces lines to split across block reads.
    """
    if format not in INGEST_FORMATS:
        raise ConfigurationError(
            f"unknown trace format {format!r}; expected one of {INGEST_FORMATS}"
        )
    if chunk_refs < 1:
        raise ConfigurationError("chunk_refs must be positive")
    if read_bytes < 1:
        raise ConfigurationError("read_bytes must be positive")
    if format == "auto":
        format = _format_from_name(source) or "auto"
    if name is None:
        hint = getattr(source, "name", None) if hasattr(source, "read") else source
        name = str(hint) if isinstance(hint, (str, bytes)) else "<stream>"
        name = name.decode("utf-8", "replace") if isinstance(name, bytes) else name
    stream = _ByteSource(source)
    try:
        yield from _parse_stream(stream, format, chunk_refs, access_size, name, read_bytes)
    finally:
        stream.close()


def _parse_stream(stream, format, chunk_refs, access_size, name, read_bytes):
    parser = None if format == "auto" else _make_parser(format, access_size)
    chunks = _ChunkAssembler(chunk_refs, name)
    carry = b""
    line_base = 0
    at_start = True
    while True:
        block = stream.read(read_bytes, line_base + 1)
        eof = not block
        pending = carry + block
        carry = b""
        if at_start:
            if not eof and len(pending) < len(_BOM):
                carry = pending
                continue
            if pending.startswith(_BOM):
                pending = pending[len(_BOM) :]
            at_start = False
        if eof:
            if pending and not pending.endswith(b"\n"):
                pending += b"\n"
            data = pending
        else:
            cut = pending.rfind(b"\n")
            if cut < 0:
                carry = pending
                continue
            data = pending[: cut + 1]
            carry = pending[cut + 1 :]
        if data:
            if parser is None:
                sniffed = _sniff_buffer(np.frombuffer(data, dtype=np.uint8))
                if sniffed is None:
                    line_base += data.count(b"\n")
                    if eof:
                        break
                    continue
                parser = _make_parser(sniffed, access_size)
            buf = parser.munge(np.frombuffer(data, dtype=np.uint8))
            handler = getattr(parser, "parse_fast", None)
            fast = handler(buf, line_base + 1) if handler is not None else None
            if fast is not None:
                parsed, line_count = fast
                line_base += line_count
            else:
                lines = _Lines(buf, line_base + 1)
                parsed = parser.parse(lines)
                line_base += lines.line_count
            if parsed is not None:
                yield from chunks.add(*parsed)
        if eof:
            break
    yield from chunks.finish()


def ingest_trace(
    source,
    format: str = "auto",
    access_size: int = 4,
    name: Optional[str] = None,
    read_bytes: int = DEFAULT_READ_BYTES,
) -> Trace:
    """Read a whole trace through the chunked path (convenience wrapper)."""
    chunks = list(
        iter_trace_chunks(
            source,
            format=format,
            access_size=access_size,
            name=name,
            read_bytes=read_bytes,
        )
    )
    if not chunks:
        return Trace.from_arrays(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.int8),
            np.zeros(0, dtype=np.int32),
            name=name or "",
        )
    return Trace.from_arrays(
        np.concatenate([chunk.address_array for chunk in chunks]),
        np.concatenate([chunk.size_array for chunk in chunks]),
        np.concatenate([chunk.kind_array for chunk in chunks]),
        np.concatenate([chunk.icount_array for chunk in chunks]),
        name=name or "+".join(chunk.name for chunk in chunks),
    )


# ---------------------------------------------------------------------------
# Content identity.
# ---------------------------------------------------------------------------


def pack_refs(trace: Trace) -> np.ndarray:
    """The canonical packed record array of ``trace``'s references."""
    packed = np.empty(len(trace), dtype=PACK_DTYPE)
    packed["address"] = trace.address_array
    packed["size"] = trace.size_array
    packed["icount"] = trace.icount_array
    packed["kind"] = trace.kind_array
    return packed


class TraceHasher:
    """SHA-256 over the canonical packed reference stream, incrementally.

    Feeding the same reference stream in any chunking — or from any
    source format or compression — produces the same digest, which is
    why the digest can serve as the trace's identity everywhere.
    """

    def __init__(self):
        self._sha = hashlib.sha256()
        self.refs = 0

    def update(self, trace: Trace) -> "TraceHasher":
        self._sha.update(pack_refs(trace).tobytes())
        self.refs += len(trace)
        return self

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def trace_content_hash(trace: Trace) -> str:
    """The content hash of an in-memory trace."""
    return TraceHasher().update(trace).hexdigest()
