"""Content-addressed catalog of ingested traces.

The catalog lives under the result store root (``<root>/traces``) so the
same ``REPRO_RESULT_DIR`` switch governs both.  Each trace is two files
keyed by its content hash (see :mod:`repro.trace.ingest`):

- ``<hash>.json`` — the record: name, reference counts, creation time;
- ``<hash>.trc.gz`` — the payload: gzip of the exact packed byte stream
  the hash was computed over, so a payload can be re-hashed to audit it.

Ingesting the same reference stream twice — different filenames, one
gzipped, different chunkings — lands on the same hash and therefore the
same entry.  Experiments name catalog traces ``ingested:<hash>``
(resolved by :func:`repro.trace.corpus.load`), which folds the content
hash into every ``ExperimentSpec`` so results dedup across the pool and
store exactly like generated workloads.

Like the result store, :meth:`TraceCatalog.gc` never deletes evidence:
records that do not parse or whose payload went missing are moved to a
``quarantine/`` sidecar with a reason envelope for manual inspection.
"""

import gzip
import json
import os
import pathlib
import tempfile
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.serde import parse_json_object
from repro.trace.ingest import (
    DEFAULT_CHUNK_REFS,
    PACK_DTYPE,
    TraceHasher,
    iter_trace_chunks,
    pack_refs,
)
from repro.trace.trace import Trace

#: Catalog directory under the result store root.
CATALOG_DIRNAME = "traces"

#: Workload-name prefix resolving to a catalog trace by content hash.
INGESTED_PREFIX = "ingested:"

_QUARANTINE_DIRNAME = "quarantine"


class TraceCatalog:
    """Filesystem catalog of ingested traces, keyed by content hash."""

    def __init__(self, root):
        self.root = pathlib.Path(root)

    def record_path(self, digest: str) -> pathlib.Path:
        return self.root / f"{digest}.json"

    def payload_path(self, digest: str) -> pathlib.Path:
        return self.root / f"{digest}.trc.gz"

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.root / _QUARANTINE_DIRNAME

    # -- writes -------------------------------------------------------------

    def add(
        self,
        source,
        format: str = "auto",
        name: Optional[str] = None,
        access_size: int = 4,
        chunk_refs: int = DEFAULT_CHUNK_REFS,
    ) -> dict:
        """Ingest ``source`` into the catalog; single pass, streaming.

        Returns the record dict with a ``duplicate`` flag: a re-ingest of
        an already-catalogued stream leaves the existing entry untouched.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        hasher = TraceHasher()
        reads = writes = instructions = 0
        fd, temp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".trc.gz", dir=self.root
        )
        try:
            with os.fdopen(fd, "wb") as raw, gzip.GzipFile(
                fileobj=raw, mode="wb"
            ) as payload:
                for chunk in iter_trace_chunks(
                    source,
                    format=format,
                    chunk_refs=chunk_refs,
                    access_size=access_size,
                    name=name,
                ):
                    payload.write(pack_refs(chunk).tobytes())
                    hasher.update(chunk)
                    reads += chunk.read_count
                    writes += chunk.write_count
                    instructions += chunk.instruction_count
        except BaseException:
            os.unlink(temp_name)
            raise
        digest = hasher.hexdigest()
        if self.record_path(digest).exists():
            os.unlink(temp_name)
            record = self.get(digest)
            record["duplicate"] = True
            return record
        os.replace(temp_name, self.payload_path(digest))
        record = {
            "hash": digest,
            "name": name or _default_name(source),
            "refs": hasher.refs,
            "reads": reads,
            "writes": writes,
            "instructions": instructions,
            "created": time.time(),
        }
        self._write_record(digest, record)
        record["duplicate"] = False
        return record

    def _write_record(self, digest: str, record: dict) -> None:
        fd, temp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=self.root
        )
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            json.dump(record, stream, indent=2)
            stream.write("\n")
        os.replace(temp_name, self.record_path(digest))

    def rm(self, digest: str) -> bool:
        """Remove a catalog entry (record and payload); True if it existed."""
        existed = self.record_path(digest).exists()
        for path in (self.record_path(digest), self.payload_path(digest)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        return existed

    # -- reads --------------------------------------------------------------

    def get(self, digest: str) -> Optional[dict]:
        """The record for ``digest``, or ``None``.

        A record that is not a UTF-8 JSON object raises
        :class:`ConfigurationError` naming the file.
        """
        path = self.record_path(digest)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        record = parse_json_object(raw)
        if record is None:
            raise ConfigurationError(
                f"corrupt trace catalog record {path}; "
                "run 'repro store gc' to quarantine it"
            )
        return record

    def ls(self) -> List[dict]:
        """All readable records, newest first."""
        records = []
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    record = parse_json_object(path.read_bytes())
                except OSError:
                    continue
                if record is not None:
                    records.append(record)
        records.sort(key=lambda record: record.get("created", 0), reverse=True)
        return records

    def resolve(self, digest: str) -> str:
        """Expand a unique hash prefix to the full digest."""
        if self.record_path(digest).exists():
            return digest
        matches = sorted(
            record["hash"]
            for record in self.ls()
            if str(record.get("hash", "")).startswith(digest)
        )
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise ConfigurationError(
                f"ambiguous trace hash prefix {digest!r}: matches "
                + ", ".join(match[:12] for match in matches)
            )
        raise ConfigurationError(
            f"unknown ingested trace {digest!r}; see 'repro trace ls'"
        )

    def load(self, digest: str) -> Trace:
        """Materialise the catalogued trace for ``digest`` (or a unique
        prefix of it)."""
        digest = self.resolve(digest)
        record = self.get(digest)
        if record is None:
            raise ConfigurationError(
                f"unknown ingested trace {digest!r}; see 'repro trace ls'"
            )
        payload = self.payload_path(digest)
        if not payload.exists():
            raise ConfigurationError(
                f"ingested trace {digest!r} has no payload; "
                "run 'repro store gc' to quarantine the record"
            )
        with gzip.open(payload, "rb") as stream:
            raw = stream.read()
        records = np.frombuffer(raw, dtype=PACK_DTYPE)
        return Trace.from_arrays(
            np.ascontiguousarray(records["address"]),
            np.ascontiguousarray(records["size"]),
            np.ascontiguousarray(records["kind"]),
            np.ascontiguousarray(records["icount"]),
            name=f"{INGESTED_PREFIX}{digest[:12]}",
        )

    # -- maintenance --------------------------------------------------------

    def gc(self) -> Tuple[int, int]:
        """``(kept, quarantined)``: move corrupt and payload-less records aside.

        Mirrors :meth:`repro.exec.store.ResultStore.gc`: nothing is
        deleted; a record that does not parse (``parse-error``) or whose
        payload is missing (``missing-trace-payload``) is rewritten into
        ``quarantine/`` with a reason envelope so the loss stays
        inspectable.
        """
        kept = quarantined = 0
        if not self.root.is_dir():
            return 0, 0
        for path in sorted(self.root.glob("*.json")):
            try:
                raw = path.read_bytes()
            except OSError:
                continue  # vanished under us: neither kept nor quarantined
            if parse_json_object(raw) is None:
                reason = "parse-error"
            elif not self.payload_path(path.stem).exists():
                reason = "missing-trace-payload"
            else:
                kept += 1
                continue
            envelope = {
                "reason": reason,
                "source": str(path),
                "raw": raw.decode("utf-8", "backslashreplace"),
            }
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            destination = self.quarantine_dir / path.name
            destination.write_text(
                json.dumps(envelope, indent=2) + "\n", encoding="utf-8"
            )
            path.unlink()
            quarantined += 1
        return kept, quarantined


def _default_name(source) -> str:
    hint = getattr(source, "name", None) if hasattr(source, "read") else source
    if isinstance(hint, bytes):
        hint = hint.decode("utf-8", "replace")
    if not isinstance(hint, str):
        return "<stream>"
    return pathlib.Path(hint).name


def open_default_catalog() -> Optional[TraceCatalog]:
    """The catalog under the default store root; ``None`` when the
    result store is disabled."""
    from repro.exec.store import default_store_root

    root = default_store_root()
    if root is None:
        return None
    return TraceCatalog(pathlib.Path(root) / CATALOG_DIRNAME)
