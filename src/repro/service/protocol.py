"""Wire formats for the experiment service.

A *job request* names a batch of experiments one client wants resolved.
Two shapes are accepted (both JSON objects):

- **explicit** — ``{"specs": [<spec>, ...]}`` where each ``<spec>`` is an
  :meth:`ExperimentSpec.to_dict` payload (kind, workload, scale, seed,
  flush, nested config);
- **grid** — ``{"kind": ..., "workloads": [...], "configs": [...],
  "scale": ..., "seed": ..., "flush": ...}``, the sweep/figure shape: the
  cartesian product expands *workload-major* (for each workload, every
  config) so each workload's grid is contiguous and the pool's batched
  dispatch sees maximal groups.

Either shape may carry ``priority`` (higher runs earlier; default 0) and
``token`` (the client identity used for round-robin fairness; default
``"anonymous"``).  Duplicate specs are dropped, preserving first-seen
order — the job's results come back in exactly that order.

Everything on the wire reuses the serde the store already trusts:
specs round-trip through :meth:`ExperimentSpec.to_dict`/``from_dict``
(config classes provide their own ``to_dict``/``from_dict``), stats
through each kind's registered ``stats_type``, run events through
:meth:`RunEvent.to_dict`, and telemetry through
:meth:`PoolTelemetry.to_dict` — so a service result decodes to dataclass
instances bit-identical to a local run's.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.errors import ConfigurationError
from repro.exec.experiments import UnknownExperimentKind, get_kind
from repro.exec.keys import ExperimentSpec

#: Bump on incompatible wire changes; served in every job payload.
PROTOCOL_VERSION = 1

#: Fairness identity used when a request names no client token.
DEFAULT_TOKEN = "anonymous"


class ProtocolError(ValueError):
    """A request payload that cannot be decoded into a job (HTTP 400)."""


@dataclass(frozen=True)
class JobRequest:
    """One decoded submission: deduplicated specs plus queue metadata."""

    specs: Tuple[ExperimentSpec, ...]
    priority: int = 0
    token: str = DEFAULT_TOKEN
    #: Spec count before deduplication (0 = nothing was dropped).
    requested: int = 0

    def __post_init__(self) -> None:
        if not self.requested:
            object.__setattr__(self, "requested", len(self.specs))


def _decode_spec(payload: object) -> ExperimentSpec:
    if not isinstance(payload, dict):
        raise ProtocolError(f"spec must be an object, got {type(payload).__name__}")
    try:
        return ExperimentSpec.from_dict(payload)
    except (UnknownExperimentKind, ConfigurationError) as error:
        raise ProtocolError(str(error)) from error
    except (ValueError, TypeError, KeyError, OverflowError) as error:
        raise ProtocolError(f"bad spec payload: {error}") from error


def _expand_grid(payload: dict) -> List[ExperimentSpec]:
    """The sweep shape: kind + workload grid + config grid, workload-major."""
    try:
        kind = get_kind(str(payload["kind"]))
    except KeyError:
        raise ProtocolError("grid requests need a 'kind'") from None
    except (UnknownExperimentKind, ConfigurationError) as error:
        raise ProtocolError(str(error)) from error
    if kind.config_type is None:
        raise ProtocolError(
            f"experiment kind {kind.name!r} registered no config_type; "
            "submit explicit specs is impossible for it"
        )
    workloads = payload.get("workloads")
    configs = payload.get("configs")
    if not isinstance(workloads, list) or not workloads:
        raise ProtocolError("grid requests need a non-empty 'workloads' list")
    if not isinstance(configs, list) or not configs:
        raise ProtocolError("grid requests need a non-empty 'configs' list")
    try:
        scale = float(payload.get("scale", 1.0))
        seed = int(payload.get("seed", 1991))
        flush = bool(payload.get("flush", True))
    except (TypeError, ValueError, OverflowError) as error:
        raise ProtocolError(f"bad grid parameters: {error}") from error
    decoded_configs = []
    for config_payload in configs:
        try:
            decoded_configs.append(kind.config_type.from_dict(config_payload))
        except (ConfigurationError, ValueError, TypeError, KeyError) as error:
            raise ProtocolError(f"bad config payload: {error}") from error
    try:
        return [
            ExperimentSpec(
                kind=kind.name,
                workload=str(workload),
                scale=scale,
                seed=seed,
                config=config,
                flush=flush,
            )
            for workload in workloads
            for config in decoded_configs
        ]
    except ConfigurationError as error:
        raise ProtocolError(str(error)) from error


def parse_job_request(payload: object) -> JobRequest:
    """Decode one ``POST /v1/jobs`` body into a :class:`JobRequest`.

    Raises :class:`ProtocolError` (mapped to HTTP 400) on anything the
    service cannot turn into a valid spec batch.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("job request must be a JSON object")
    if "specs" in payload:
        specs_payload = payload["specs"]
        if not isinstance(specs_payload, list) or not specs_payload:
            raise ProtocolError("'specs' must be a non-empty list")
        specs = [_decode_spec(entry) for entry in specs_payload]
    else:
        specs = _expand_grid(payload)
    try:
        priority = int(payload.get("priority", 0))
    except (TypeError, ValueError, OverflowError) as error:
        raise ProtocolError(f"bad priority: {error}") from error
    token = str(payload.get("token", DEFAULT_TOKEN)) or DEFAULT_TOKEN
    return JobRequest(
        specs=tuple(dict.fromkeys(specs)),
        priority=priority,
        token=token,
        requested=len(specs),
    )


def grid_request(
    kind: str,
    workloads,
    configs,
    scale: float = 1.0,
    seed: int = 1991,
    flush: bool = True,
    priority: int = 0,
    token: str = DEFAULT_TOKEN,
) -> Dict[str, object]:
    """Build the grid-shaped submission payload (client-side helper)."""
    return {
        "kind": kind,
        "workloads": list(workloads),
        "configs": [config.to_dict() for config in configs],
        "scale": scale,
        "seed": seed,
        "flush": flush,
        "priority": priority,
        "token": token,
    }


def specs_request(
    specs,
    priority: int = 0,
    token: str = DEFAULT_TOKEN,
) -> Dict[str, object]:
    """Build the explicit-specs submission payload (client-side helper)."""
    return {
        "specs": [spec.to_dict() for spec in specs],
        "priority": priority,
        "token": token,
    }


def decode_stats(kind_name: str, payload: dict):
    """Rebuild one stats dataclass from its wire dict (bit-identical)."""
    return get_kind(kind_name).stats_type.from_dict(payload)
