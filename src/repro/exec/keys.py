"""Content-addressed identity of one experiment.

An :class:`ExperimentSpec` names everything that determines a run's
statistics: the experiment kind, the workload with its scale and seed,
the kind-specific configuration, the flush policy, and — via the
experiment registry — the kind's engine version.  Its
:meth:`~ExperimentSpec.digest` is the address under which the result
store persists the stats, so it must be stable across processes, Python
versions and hash randomisation — it is built from an explicit canonical
string, never from ``hash()``.

Config objects plug in via duck typing: anything frozen/hashable with a
``cache_key()`` canonical string and a ``name`` property participates
(:class:`~repro.cache.config.CacheConfig`,
:class:`~repro.buffers.write_buffer.WriteBufferConfig`, ...).
"""

import hashlib
from dataclasses import dataclass

from repro.exec.experiments import engine_version_for, get_kind


@dataclass(frozen=True)
class ExperimentSpec:
    """One (kind, workload, scale, seed, config, flush) experiment request."""

    kind: str
    workload: str
    scale: float
    seed: int
    config: object
    flush: bool = True

    def canonical(self) -> str:
        """The exact string that is hashed into the store address.

        ``scale`` uses ``repr`` so distinct floats never collide, and the
        kind's engine version rides along so an engine bump invalidates
        every previously stored result of that kind — and only that kind.
        """
        return (
            f"kind={self.kind}:workload={self.workload}:scale={self.scale!r}:"
            f"seed={self.seed}:flush={int(self.flush)}:"
            f"{self.config.cache_key()}:"
            f"engine={engine_version_for(self.kind)}"
        )

    def digest(self) -> str:
        """Hex content address (sha256 of :meth:`canonical`)."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for progress reporting."""
        label = f"{self.workload}@{self.scale:g} on {self.config.name}"
        if self.kind != "cache":
            label = f"[{self.kind}] {label}"
        if not self.flush:
            label += " (no flush)"
        return label

    # -- serde ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe payload naming the full identity of this experiment.

        Requires the kind to have registered a ``config_type`` (every
        builtin kind does); the config nests as its own dict.  JSON floats
        round-trip exactly (shortest-repr), so ``scale`` survives the wire
        bit-identically and the rebuilt spec hashes to the same digest.
        """
        kind = get_kind(self.kind)
        if kind.config_type is None:
            raise TypeError(
                f"experiment kind {self.kind!r} registered no config_type; "
                "its specs cannot be serialized"
            )
        return {
            "kind": self.kind,
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "flush": self.flush,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise.

        The kind tag selects the registered ``config_type`` whose
        ``from_dict`` rebuilds (and validates) the nested config.
        """
        known = {"kind", "workload", "scale", "seed", "flush", "config"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        kind = get_kind(payload["kind"])
        if kind.config_type is None:
            raise TypeError(
                f"experiment kind {kind.name!r} registered no config_type; "
                "its specs cannot be deserialized"
            )
        return cls(
            kind=kind.name,
            workload=str(payload["workload"]),
            scale=float(payload["scale"]),
            seed=int(payload["seed"]),
            config=kind.config_type.from_dict(payload["config"]),
            flush=bool(payload.get("flush", True)),
        )
