"""The standard six-benchmark corpus, memoised per process.

Workload generation is deterministic but not free (hundreds of thousands
of events), and every figure sweeps the same six traces across many cache
configurations, so :func:`load` caches built traces keyed by
``(name, scale, seed)``.  Benchmarks and examples should always come
through here rather than instantiating workload classes directly.
"""

from typing import Dict, Iterable, Tuple

from repro.common.errors import ConfigurationError
from repro.trace.trace import Trace
from repro.trace.workloads import WORKLOADS

#: Table 1 order.
BENCHMARK_NAMES: Tuple[str, ...] = ("ccom", "grr", "yacc", "met", "linpack", "liver")

#: Default scale for experiments: full working sets, ~150k data references
#: per workload (see DESIGN.md on trace scaling).
DEFAULT_SCALE = 1.0

_cache: Dict[Tuple[str, float, int], Trace] = {}


def load(name: str, scale: float = DEFAULT_SCALE, seed: int = 1991) -> Trace:
    """Return the (cached) trace for benchmark ``name``.

    Besides the generated corpus, ``ingested:<content-hash>`` names
    resolve through the trace catalog (:mod:`repro.trace.catalog`) to an
    externally captured trace; ``scale`` and ``seed`` are ignored for
    those (the content hash alone fixes the reference stream, which is
    exactly why it keys the ``ExperimentSpec``).
    """
    if name.startswith("ingested:"):
        from repro.trace.catalog import open_default_catalog

        key = (name, 0.0, 0)
        if key not in _cache:
            catalog = open_default_catalog()
            if catalog is None:
                raise ConfigurationError(
                    "ingested workloads need the result store enabled "
                    "(set REPRO_RESULT_DIR to the store root)"
                )
            _cache[key] = catalog.load(name[len("ingested:"):])
        return _cache[key]
    if name not in WORKLOADS:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; expected one of {sorted(WORKLOADS)}"
        )
    key = (name, scale, seed)
    if key not in _cache:
        _cache[key] = WORKLOADS[name](scale=scale, seed=seed).build()
    return _cache[key]


def load_all(
    names: Iterable[str] = BENCHMARK_NAMES,
    scale: float = DEFAULT_SCALE,
    seed: int = 1991,
) -> Dict[str, Trace]:
    """Load several benchmarks at once, preserving order."""
    return {name: load(name, scale=scale, seed=seed) for name in names}


def clear_cache() -> None:
    """Drop all memoised traces (used by tests that tune scale)."""
    _cache.clear()
