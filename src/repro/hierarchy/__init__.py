"""Memory-hierarchy composition: what sits behind the first-level cache.

The paper assumes "two or more levels of caching" and measures the traffic
at the back side of the first level (Section 5).  This package provides
the next-level components and the glue:

- :class:`repro.hierarchy.memory.MainMemory` — a counting (optionally
  data-carrying) terminal backend.
- :class:`repro.hierarchy.memory.TrafficMeter` — transaction/byte counts
  observed at any backend boundary.
- :class:`repro.hierarchy.system.HierarchyConfig` /
  :class:`repro.hierarchy.system.LevelConfig` — the declarative hierarchy
  graph: an ordered list of cache levels, each with optional attached
  structures (write cache, victim cache, miss cache, stream buffers).
- :class:`repro.hierarchy.system.CacheSystem` — the built hierarchy:
  stacked cache levels over metered inter-level boundaries and memory.
- :class:`repro.hierarchy.system.SystemStats` /
  :class:`repro.hierarchy.system.LevelStats` — the serializable result
  of one hierarchy run.
- :func:`repro.hierarchy.hiersim.simulate_hierarchy` — runs a hierarchy
  graph level by level through the vector kernel where it can, composed
  where a level declines, bit-identical either way (the registered
  ``system`` experiment kind runs its grids through
  ``simulate_hierarchy_batch_info``).
- :class:`repro.hierarchy.system.CacheLevelBackend` — adapter that lets a
  :class:`~repro.cache.cache.Cache` serve as the next level below another
  cache; :class:`repro.hierarchy.system.MeteringBackend` counts any
  inter-level boundary exactly as the terminal memory would.

See ``docs/hierarchy.md`` for the full graph model.
"""

from repro.hierarchy.memory import MainMemory, TrafficMeter
from repro.hierarchy.system import (
    CacheLevelBackend,
    CacheSystem,
    HierarchyConfig,
    LevelConfig,
    LevelStats,
    MeteringBackend,
    SystemStats,
)
from repro.hierarchy.hiersim import simulate_hierarchy

__all__ = [
    "MainMemory",
    "TrafficMeter",
    "CacheLevelBackend",
    "CacheSystem",
    "HierarchyConfig",
    "LevelConfig",
    "LevelStats",
    "MeteringBackend",
    "SystemStats",
    "simulate_hierarchy",
]
