"""Kind-dispatched experiment registry.

Every simulator family in the repo — the fast L1 cache simulator, the
coalescing write buffer, the write cache, the dirty-victim buffer and the
composed hierarchy — produces results through the same pipeline: build a
spec, hash it into a content address, check the result store, compute on
miss.  What differs per family is *how* to compute and *what* the stats
look like.  This module holds that per-family knowledge as a registry of
:class:`ExperimentKind` entries, keyed by a stable string tag.

Each kind contributes:

- ``runner(specs, trace) -> (stats_list, counters)`` — the actual
  simulation of a list of specs that share one trace (see
  :class:`ExperimentKind`);
- ``stats_type`` — the dataclass with ``kind``/``to_dict``/``from_dict``,
  used to (de)serialize store records;
- ``engine_version`` — folded into every content address of that kind, so
  bumping one family's engine orphans only that family's stored results;
- ``schema_version`` — version of the stats *record layout*; the store
  rejects records whose ``kind_schema`` does not match, so a counter
  rename cannot resurrect as garbage.

Builtin kinds register lazily on first lookup (importing
:mod:`repro.exec.runners` pulls in every simulator family; doing that at
module-import time would create cycles with the families themselves).
Downstream code can register additional kinds with :func:`register_runner`
— worker processes re-trigger the lazy import, so builtin kinds dispatch
identically under :class:`~concurrent.futures.ProcessPoolExecutor`.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.common.errors import ConfigurationError


class UnknownExperimentKind(ConfigurationError):
    """A spec named a kind that no runner has been registered for."""


@dataclass(frozen=True)
class ExperimentKind:
    """Everything the experiment layer knows about one simulator family."""

    name: str
    #: ``runner(specs, trace) -> (stats_list, counters)``: one stats per
    #: spec, in spec order, plus a dict of dispatch counters
    #: (``profiled_runs``, ``profile_passes``, ``hier_vector_runs``; may
    #: be ``{}``) the pool folds into
    #: :class:`~repro.exec.pool.PoolTelemetry`.  The pool hands it every
    #: pending spec that agrees on ``(workload, scale, seed, flush)`` —
    #: a lone spec is a list of one — and its degradation ladder may
    #: re-dispatch any contiguous *sub-list* of a failed group (batch
    #: bisection), so a runner must accept arbitrary subsets of a grid it
    #: has seen before and carry no state between calls.
    runner: Callable
    stats_type: type
    engine_version: str
    schema_version: int = 1
    #: Optional config class with ``to_dict``/``from_dict``; kinds that
    #: register one can round-trip whole :class:`ExperimentSpec`\ s through
    #: JSON (the experiment service's wire format).  Kinds without one
    #: still run locally but cannot be submitted over the wire.
    config_type: Optional[type] = None


_REGISTRY: Dict[str, ExperimentKind] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        # Registers the builtin kinds via its module-level register_runner
        # calls; import is deferred to break the families -> exec cycle.
        import repro.exec.runners  # noqa: F401


def register_runner(
    name: str,
    runner: Callable,
    stats_type: type,
    engine_version,
    schema_version: int = 1,
    replace: bool = False,
    config_type: Optional[type] = None,
) -> ExperimentKind:
    """Register (or, with ``replace``, override) an experiment kind.

    ``runner`` takes ``(specs, trace)`` and returns ``(stats_list,
    counters)`` (see :attr:`ExperimentKind.runner`).
    ``stats_type`` must carry a ``kind`` class attribute equal to ``name``
    plus ``to_dict``/``from_dict`` — the store relies on all three.
    ``config_type``, when given, must round-trip through
    ``to_dict``/``from_dict`` too — the experiment service relies on it to
    rebuild wire-submitted specs.
    """
    if getattr(stats_type, "kind", None) != name:
        raise ConfigurationError(
            f"stats type {stats_type.__name__} declares kind="
            f"{getattr(stats_type, 'kind', None)!r}, expected {name!r}"
        )
    for method in ("to_dict", "from_dict"):
        if not callable(getattr(stats_type, method, None)):
            raise ConfigurationError(
                f"stats type {stats_type.__name__} lacks {method}()"
            )
    if config_type is not None:
        for method in ("to_dict", "from_dict"):
            if not callable(getattr(config_type, method, None)):
                raise ConfigurationError(
                    f"config type {config_type.__name__} lacks {method}()"
                )
    if not replace and name in _REGISTRY:
        raise ConfigurationError(f"experiment kind {name!r} is already registered")
    kind = ExperimentKind(
        name=name,
        runner=runner,
        stats_type=stats_type,
        engine_version=str(engine_version),
        schema_version=schema_version,
        config_type=config_type,
    )
    _REGISTRY[name] = kind
    return kind


def unregister_runner(name: str) -> None:
    """Remove a kind (primarily for tests); unknown names are ignored."""
    _REGISTRY.pop(name, None)


def get_kind(name: str) -> ExperimentKind:
    """Look up a kind, loading builtins on first use."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise UnknownExperimentKind(
            f"unknown experiment kind {name!r} (registered: {known})"
        ) from None


def registered_kinds() -> Tuple[str, ...]:
    """Sorted names of every registered kind."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def engine_version_for(name: str) -> str:
    """The engine-version tag a spec of this kind hashes into its address."""
    return get_kind(name).engine_version
