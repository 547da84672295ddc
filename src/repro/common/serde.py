"""Serialization shared by every experiment-stats dataclass.

The result store persists statistics as JSON, so every stats class in the
kind registry (:mod:`repro.exec.experiments`) must round-trip through
plain dicts.  Flat dataclasses — counters, and flat experiment configs
such as the write-buffer and write-cache configs — get that for free by
mixing in :class:`CounterSerde`; composite stats (nested dataclasses)
implement ``to_dict``/``from_dict`` by hand but follow the same contract:

- ``to_dict`` emits only JSON-safe values and never aliases mutable state
  back into the object;
- ``from_dict`` raises on *unknown* keys (a schema mismatch must read as
  a corrupt record, never silently drop data) and falls back to field
  defaults for *missing* keys (older records without newer counters still
  load).

:func:`parse_json_object` is the first step of reading any on-disk record
(result store, trace catalog): bytes that are not a UTF-8 JSON object
read as corrupt instead of raising.
"""

import json
from dataclasses import fields
from typing import Optional


class CounterSerde:
    """Mixin: flat dataclass <-> plain dict (JSON-safe)."""

    def to_dict(self) -> dict:
        """Every dataclass field as a plain value (dicts shallow-copied)."""
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            payload[spec.name] = dict(value) if isinstance(value, dict) else value
        return payload

    @classmethod
    def from_dict(cls, payload: dict):
        """Inverse of :meth:`to_dict`; unknown keys raise, missing default."""
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
        return cls(**payload)


def parse_json_object(raw: bytes) -> Optional[dict]:
    """An on-disk record's JSON object, or ``None`` if ``raw`` is not one.

    Bytes that are not UTF-8, not JSON, or JSON of anything but an object
    all read as ``None``, so callers can treat any of them as corrupt.
    """
    try:
        # UnicodeDecodeError is a ValueError too.
        record = json.loads(raw.decode("utf-8"))
    except ValueError:
        return None
    return record if isinstance(record, dict) else None
