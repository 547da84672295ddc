"""On-disk, content-addressed result store.

Layout: one JSON file per result under ``<root>/v<SCHEMA>/<aa>/<digest>.json``
where ``aa`` is the first two hex digits of the
:class:`~repro.exec.keys.ExperimentSpec` digest (a 256-way shard keeps
directories small for large sweeps).  Each record carries the store schema
version, the experiment kind with its per-kind stats schema version, the
canonical key string and the stats counter dict for that kind.

Guarantees:

- **atomic writes** — records are written to a temp file in the shard
  directory and ``os.replace``d into place, so readers never observe a
  partial record, even across concurrent writers;
- **corruption tolerance** — a truncated, garbled, schema-mismatched or
  wrong-kind record reads as a miss (and is counted in telemetry), never
  a crash; the caller simply recomputes and overwrites it — and one
  kind's bad records never affect another kind's;
- **quarantine** — a record that fails to read is not silently
  re-missed: it is *moved* into a ``quarantine/`` sidecar directory with
  a machine-readable reason code (``parse-error``,
  ``store-schema-mismatch``, ``kind-mismatch``, ``kind-schema-mismatch``,
  ``key-mismatch``, ``stats-decode-error``, ``unknown-kind``,
  ``stale-store-schema``), so corruption is diagnosable after the fact.
  ``store stats`` reports the quarantine population, ``store gc`` routes
  the bad records it drops through the same sidecar, and
  ``store quarantine [--purge]`` lists or empties it;
- **invalidation** — each kind's engine version is part of the content
  hash (see :meth:`ExperimentSpec.canonical`), so bumping one family's
  engine orphans that family's records only; a kind's ``schema_version``
  is checked at read time, so a counter-layout change cannot resurrect as
  garbage.  ``gc()`` deletes orphans and corrupt files.

The default location is ``$REPRO_RESULT_DIR`` if set, else
``~/.cache/repro/results`` (honouring ``$XDG_CACHE_HOME``).  Setting
``REPRO_RESULT_DIR`` to ``off``, ``none`` or ``0`` disables persistence
entirely.
"""

import json
import os
import pathlib
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.serde import parse_json_object
from repro.exec import faults as faults_module
from repro.exec.experiments import UnknownExperimentKind, get_kind
from repro.exec.keys import ExperimentSpec

#: Bump when the record layout changes; old schema dirs become garbage.
#: v2: records gained "kind" and "kind_schema" (kind-dispatched registry).
STORE_SCHEMA = 2

#: Environment variable overriding the store location ("off" disables).
ENV_RESULT_DIR = "REPRO_RESULT_DIR"

#: Sidecar directory (under the store root) holding quarantined records.
QUARANTINE_DIRNAME = "quarantine"

_DISABLED_VALUES = ("", "off", "none", "0", "disabled")


@dataclass
class StoreTelemetry:
    """Counters describing how the store has been used this process.

    Several threads read one store at once (the pool's lookups run outside
    its lock), so counters change only through :meth:`count`.
    """

    hits: int = 0  #: get() calls served from disk
    misses: int = 0  #: get() calls with no record on disk
    corrupt: int = 0  #: records skipped because they failed to parse
    writes: int = 0  #: records persisted
    quarantined: int = 0  #: bad records moved into the quarantine sidecar
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, name: str) -> None:
        """Add one to the counter ``name`` (a read-modify-write, so locked)."""
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "quarantined": self.quarantined,
        }


class ResultStore:
    """Persistent map from :class:`ExperimentSpec` to its kind's stats."""

    def __init__(self, root, faults=None) -> None:
        self.root = pathlib.Path(root)
        self.telemetry = StoreTelemetry()
        # Fault plan driving torn-write injection (chaos tests only; None
        # in production, where the write path never consults it again).
        self.faults = faults_module.active_plan() if faults is None else faults

    # -- addressing ---------------------------------------------------------

    @property
    def schema_dir(self) -> pathlib.Path:
        return self.root / f"v{STORE_SCHEMA}"

    def path_for(self, key: ExperimentSpec) -> pathlib.Path:
        digest = key.digest()
        return self.schema_dir / digest[:2] / f"{digest}.json"

    # -- read/write ---------------------------------------------------------

    @staticmethod
    def _decode(raw: bytes, key: Optional[ExperimentSpec] = None):
        """Decode one record: ``(stats, None)`` or ``(None, reason)``.

        With ``key`` (a read) the record must also be that key's own;
        without it (``gc``) it must name a registered kind.  Bytes that
        are not a UTF-8 JSON object are a ``parse-error``.
        """
        record = parse_json_object(raw)
        if record is None:
            return None, "parse-error"
        if record.get("schema") != STORE_SCHEMA:
            return None, "store-schema-mismatch"
        if key is not None and record.get("kind") != key.kind:
            return None, "kind-mismatch"
        try:
            kind = get_kind(record["kind"])
        except (UnknownExperimentKind, KeyError, TypeError):
            return None, "unknown-kind"
        if record.get("kind_schema") != kind.schema_version:
            return None, "kind-schema-mismatch"
        if key is not None and record.get("key") != key.canonical():
            return None, "key-mismatch"
        try:
            stats = kind.stats_type.from_dict(record["stats"])
        except (ValueError, KeyError, TypeError):
            return None, "stats-decode-error"
        return stats, None

    def get(self, key: ExperimentSpec):
        """Load a stored result, or ``None`` on miss/corruption.

        A record that fails to read is quarantined (moved to the
        ``quarantine/`` sidecar with its reason code) rather than left in
        place to re-miss on every warm run; the caller recomputes and the
        fresh write heals the store.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.telemetry.count("misses")
            return None
        stats, reason = self._decode(raw, key)
        if reason is not None:
            # A bad record is never fatal: quarantine it and recompute.
            self.telemetry.count("corrupt")
            self._quarantine(path, reason, raw=raw)
            return None
        self.telemetry.count("hits")
        return stats

    def put(self, key: ExperimentSpec, stats) -> None:
        """Persist a result atomically (write temp file, then rename)."""
        kind = get_kind(key.kind)
        if not isinstance(stats, kind.stats_type):
            raise TypeError(
                f"{key.kind} experiments persist {kind.stats_type.__name__}, "
                f"got {type(stats).__name__}"
            )
        record = {
            "schema": STORE_SCHEMA,
            "kind": kind.name,
            "kind_schema": kind.schema_version,
            "key": key.canonical(),
            "stats": stats.to_dict(),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        torn = faults_module.store_write_rule(self.faults, key)
        if torn is not None:
            # Injected torn write: bypass the temp-file/rename protection
            # and leave a truncated record at the final path, as a crash
            # mid-write would without atomicity.  The next read finds the
            # damage, quarantines it and recomputes.
            payload = json.dumps(record, separators=(",", ":"))
            path.write_text(payload[: max(1, len(payload) // 2)], encoding="utf-8")
            raise faults_module.InjectedFault(
                f"injected torn store write for {key.describe()}"
            )
        handle, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                json.dump(record, tmp, separators=(",", ":"))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.telemetry.count("writes")

    def contains(self, key: ExperimentSpec) -> bool:
        """Cheap existence probe (no parse, no telemetry)."""
        return self.path_for(key).exists()

    # -- quarantine ---------------------------------------------------------

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.root / QUARANTINE_DIRNAME

    def _quarantine(self, path: pathlib.Path, reason: str, raw=None) -> None:
        """Move one bad record into the quarantine sidecar.

        The quarantine entry is a JSON envelope carrying the reason code,
        the record's original path and its raw bytes (non-UTF-8 bytes
        backslash-escaped), so corruption can be diagnosed after the
        store has healed itself.  Quarantine failures (read-only sidecar,
        full disk) degrade to plain deletion — a bad record must never
        survive in the record tree either way.
        """
        if raw is None:
            try:
                raw = path.read_bytes()
            except OSError:
                pass
        text = None if raw is None else raw.decode("utf-8", "backslashreplace")
        entry = {"reason": reason, "source": str(path), "raw": text}
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                dir=str(self.quarantine_dir), prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                json.dump(entry, tmp, separators=(",", ":"))
            os.replace(tmp_name, self.quarantine_dir / path.name)
        except OSError:
            pass
        try:
            path.unlink()
        except OSError:
            pass
        self.telemetry.count("quarantined")

    def quarantine_entries(self) -> List[Dict[str, str]]:
        """The quarantined records: ``[{"file", "reason", "source"}, ...]``."""
        entries = []
        if not self.quarantine_dir.is_dir():
            return entries
        for path in sorted(self.quarantine_dir.glob("*.json")):
            if path.name.startswith(".tmp-"):
                continue
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                reason = entry.get("reason", "unknown")
                source = entry.get("source", "")
            except (OSError, ValueError, AttributeError):
                reason, source = "unreadable-quarantine-entry", ""
            entries.append({"file": path.name, "reason": reason, "source": source})
        return entries

    def purge_quarantine(self) -> int:
        """Delete every quarantine entry; returns the number removed."""
        removed = 0
        if not self.quarantine_dir.is_dir():
            return removed
        for path in list(self.quarantine_dir.glob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            self.quarantine_dir.rmdir()
        except OSError:
            pass
        return removed

    # -- maintenance --------------------------------------------------------

    def _record_paths(self) -> Iterator[pathlib.Path]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("v*/??/*.json")):
            if not path.name.startswith(".tmp-"):
                yield path

    def __len__(self) -> int:
        return sum(1 for _ in self._record_paths())

    def stats(self) -> Dict[str, object]:
        """Summary of what is on disk (for ``repro store stats``).

        ``by_kind`` counts current-schema records per experiment kind;
        unreadable records land in the ``"<corrupt>"`` bucket.
        """
        records = 0
        size_bytes = 0
        stale = 0
        by_kind: Dict[str, int] = {}
        for path in self._record_paths():
            records += 1
            try:
                size_bytes += path.stat().st_size
            except OSError:
                continue
            if f"v{STORE_SCHEMA}" not in path.parts:
                stale += 1
                continue
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
                kind_name = record["kind"]
                if not isinstance(kind_name, str):
                    raise TypeError("kind is not a string")
            except (OSError, ValueError, KeyError, TypeError):
                kind_name = "<corrupt>"
            by_kind[kind_name] = by_kind.get(kind_name, 0) + 1
        quarantine = self.quarantine_entries()
        reasons: Dict[str, int] = {}
        for entry in quarantine:
            reasons[entry["reason"]] = reasons.get(entry["reason"], 0) + 1
        return {
            "root": str(self.root),
            "records": records,
            "bytes": size_bytes,
            "stale_schema_records": stale,
            "by_kind": dict(sorted(by_kind.items())),
            "quarantine_records": len(quarantine),
            "quarantine_reasons": dict(sorted(reasons.items())),
            **self.telemetry.snapshot(),
        }

    def records(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """Catalog of current-schema records (for ``GET /v1/runs``).

        Each entry carries the record's content digest, its kind and
        kind-schema version, and the canonical key string — enough for a
        client to tell what has already been computed without decoding
        stats.  Unreadable records are skipped (``stats()`` counts them);
        ``kind`` filters to one experiment family.
        """
        entries: List[Dict[str, object]] = []
        for path in self._record_paths():
            if f"v{STORE_SCHEMA}" not in path.parts:
                continue
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
                record_kind = record["kind"]
                key = record["key"]
                kind_schema = record["kind_schema"]
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if kind is not None and record_kind != kind:
                continue
            entries.append(
                {
                    "digest": path.stem,
                    "kind": record_kind,
                    "kind_schema": kind_schema,
                    "key": key,
                }
            )
        return entries

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        removed = 0
        for path in list(self._record_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def gc(self) -> Tuple[int, int]:
        """Drop corrupt, stale-schema and unknown-kind records.

        Returns ``(kept, removed)``.  A record is kept only if it lives
        under the current schema directory, names a registered kind whose
        stats schema matches, and parses cleanly all the way through that
        kind's ``from_dict``.  One kind's corrupt records never force
        another kind's records out.  Dropped records are routed through
        the quarantine sidecar (with their reason code) rather than
        destroyed, so ``store quarantine`` can still explain what went
        wrong.
        """
        kept = removed = 0
        for path in list(self._record_paths()):
            raw = None
            if f"v{STORE_SCHEMA}" not in path.parts:
                reason = "stale-store-schema"
            else:
                try:
                    raw = path.read_bytes()
                except OSError:
                    continue  # vanished under us: neither kept nor removed
                _, reason = self._decode(raw)
            if reason is None:
                kept += 1
            else:
                self._quarantine(path, reason, raw=raw)
                removed += 1
        return kept, removed


def default_store_root() -> Optional[pathlib.Path]:
    """Resolve the store location from the environment.

    ``None`` means persistence is disabled.
    """
    override = os.environ.get(ENV_RESULT_DIR)
    if override is not None:
        if override.strip().lower() in _DISABLED_VALUES:
            return None
        return pathlib.Path(override).expanduser()
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(cache_home) if cache_home else pathlib.Path.home() / ".cache"
    return base / "repro" / "results"


def open_default_store() -> Optional[ResultStore]:
    """A :class:`ResultStore` at the default location, or ``None`` if off."""
    root = default_store_root()
    return None if root is None else ResultStore(root)
