"""Trace file reader/writer.

The format is a Dinero-style line-oriented text format so traces can be
inspected, diffed, and produced by external tools:

    # comment
    r <hex-address> <size> [icount]
    w <hex-address> <size> [icount]

``icount`` defaults to 1.  Writes compress when the path ends in
``.gz``; reads sniff the gzip magic bytes, so compressed files are
recognised regardless of their name.  The format intentionally
round-trips everything a :class:`~repro.trace.trace.Trace` holds.

This line reader builds one ``MemRef`` per reference.  It stays as the
public :func:`read_trace` and as the oracle the ingest differential
tests compare against; the CLI, ``trace add`` and the service all parse
through the chunked array-native path in :mod:`repro.trace.ingest`,
which reads the same formats (plus CSV) orders of magnitude faster and
in bounded memory.
"""

import gzip
import io
from typing import Iterator, Union

from repro.common.errors import TraceFormatError
from repro.trace.events import READ, WRITE, MemRef
from repro.trace.trace import Trace

_KIND_CHARS = {READ: "r", WRITE: "w"}
_CHAR_KINDS = {"r": READ, "w": WRITE}


#: Leading bytes of every gzip stream (RFC 1952).
_GZIP_MAGIC = b"\x1f\x8b"


def _open(path: str, mode: str):
    """Open a trace file for reading or writing, gzip-aware.

    Writes honour the ``.gz`` suffix (the caller chose the name), but
    reads sniff the gzip magic bytes instead: a gzip file without the
    suffix and a plain file misnamed ``.gz`` both open correctly.
    ``utf-8-sig`` decoding strips a leading BOM transparently.
    """
    if "r" in mode:
        raw = open(path, "rb")
        try:
            magic = raw.read(len(_GZIP_MAGIC))
            raw.seek(0)
        except OSError:
            raw.close()
            raise
        if magic == _GZIP_MAGIC:
            return io.TextIOWrapper(
                gzip.GzipFile(fileobj=raw), encoding="utf-8-sig"
            )
        return io.TextIOWrapper(raw, encoding="utf-8-sig")
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def _numbered_lines(stream):
    """Enumerate lines, converting stream-level failures (truncated gzip,
    undecodable bytes) into :class:`TraceFormatError` with a position."""
    line_number = 0
    iterator = iter(stream)
    while True:
        try:
            line = next(iterator)
        except StopIteration:
            return
        except (EOFError, OSError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"line {line_number + 1}: unreadable trace data ({exc})"
            ) from exc
        line_number += 1
        yield line_number, line


def write_trace(trace: Trace, path: str) -> None:
    """Write ``trace`` to ``path`` in the text format."""
    with _open(path, "w") as stream:
        stream.write(f"# repro trace: {trace.name}\n")
        for address, size, kind, icount in zip(
            trace.addresses, trace.sizes, trace.kinds, trace.icounts
        ):
            if icount == 1:
                stream.write(f"{_KIND_CHARS[kind]} {address:x} {size}\n")
            else:
                stream.write(f"{_KIND_CHARS[kind]} {address:x} {size} {icount}\n")


def iter_trace_lines(stream: io.TextIOBase) -> Iterator[MemRef]:
    """Parse an open text stream into :class:`MemRef` events."""
    for line_number, line in _numbered_lines(stream):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) not in (3, 4):
            raise TraceFormatError(f"line {line_number}: expected 3-4 fields, got {text!r}")
        kind_char, address_text, size_text = fields[:3]
        kind = _CHAR_KINDS.get(kind_char.lower())
        if kind is None:
            raise TraceFormatError(f"line {line_number}: unknown access kind {kind_char!r}")
        try:
            address = int(address_text, 16)
            size = int(size_text)
            icount = int(fields[3]) if len(fields) == 4 else 1
        except ValueError as exc:
            raise TraceFormatError(f"line {line_number}: {exc}") from exc
        try:
            yield MemRef(address, size, kind, icount)
        except Exception as exc:
            raise TraceFormatError(f"line {line_number}: {exc}") from exc


def read_trace(path: Union[str, "io.TextIOBase"], name: str = "") -> Trace:
    """Read a trace file written by :func:`write_trace` (or by hand)."""
    if hasattr(path, "read"):
        return Trace.from_refs(iter_trace_lines(path), name=name)
    with _open(path, "r") as stream:
        return Trace.from_refs(iter_trace_lines(stream), name=name or str(path))


def iter_din_lines(stream: io.TextIOBase, access_size: int = 4) -> Iterator[MemRef]:
    """Parse the classic Dinero "din" format: ``<label> <hex-address>``.

    Labels: 0 = data read, 1 = data write, 2 = instruction fetch
    (skipped — this library studies data caches; each fetch adds one
    instruction to the following data reference, preserving per-
    instruction rates).  Addresses are aligned down to ``access_size``.
    """
    pending_instructions = 0
    for line_number, line in _numbered_lines(stream):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) < 2:
            raise TraceFormatError(f"line {line_number}: expected 'label address'")
        try:
            label = int(fields[0])
            address = int(fields[1], 16)
        except ValueError as exc:
            raise TraceFormatError(f"line {line_number}: {exc}") from exc
        if label == 2:
            pending_instructions += 1
            continue
        if label not in (0, 1):
            raise TraceFormatError(f"line {line_number}: unknown din label {label}")
        kind = READ if label == 0 else WRITE
        aligned = address & ~(access_size - 1)
        try:
            yield MemRef(aligned, access_size, kind, icount=pending_instructions + 1)
        except Exception as exc:
            raise TraceFormatError(f"line {line_number}: {exc}") from exc
        pending_instructions = 0


def read_din_trace(path: Union[str, "io.TextIOBase"], name: str = "", access_size: int = 4) -> Trace:
    """Read a Dinero-format trace file (``.gz`` supported)."""
    if hasattr(path, "read"):
        return Trace.from_refs(iter_din_lines(path, access_size), name=name)
    with _open(path, "r") as stream:
        return Trace.from_refs(
            iter_din_lines(stream, access_size), name=name or str(path)
        )
