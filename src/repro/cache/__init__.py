"""The cache simulator: write-hit and write-miss policy machinery.

This package implements the paper's experimental instrument — a first-level
data cache simulator with:

- write-through and write-back write-hit policies (Section 3),
- the four useful write-miss policies of Fig. 12: fetch-on-write,
  write-validate, write-around and write-invalidate (Section 4),
- per-byte valid and dirty masks (sub-block valid bits for write-validate,
  sub-block dirty bits for Section 5.2's partial write-backs),
- victim statistics with cold-stop and flush-stop accounting (Section 5).

:class:`repro.cache.cache.Cache` is the general reference simulator
(set-associative, optional data fidelity); :mod:`repro.cache.fastsim`
dispatches stats-only direct-mapped runs to the vectorised numpy kernel
:mod:`repro.cache.vecsim` (and size ladders to the reuse-distance
profiler :mod:`repro.cache.rdsim`), both validated bit for bit against
the reference, and everything else to the reference itself.
"""

from repro.cache.policies import (
    WriteHitPolicy,
    WriteMissPolicy,
    WRITE_BACK,
    WRITE_THROUGH,
    FETCH_ON_WRITE,
    WRITE_VALIDATE,
    WRITE_AROUND,
    WRITE_INVALIDATE,
)
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.cache.cache import Cache
from repro.cache.fastsim import simulate_trace

__all__ = [
    "WriteHitPolicy",
    "WriteMissPolicy",
    "WRITE_BACK",
    "WRITE_THROUGH",
    "FETCH_ON_WRITE",
    "WRITE_VALIDATE",
    "WRITE_AROUND",
    "WRITE_INVALIDATE",
    "CacheConfig",
    "CacheStats",
    "Cache",
    "simulate_trace",
]
