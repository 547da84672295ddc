"""Tables 1-3 as renderable artefacts.

Table 1 is measured from the synthetic corpus; Tables 2 and 3 are the
paper's structural comparisons, rendered from
:mod:`repro.pipeline.hardware` so docs, examples and tests share one
source of truth.
"""

from repro.common.render import format_table
from repro.pipeline.hardware import compare_hit_policies, hardware_requirements
from repro.cache.policies import WriteHitPolicy
from repro.core.runner import DEFAULT_SEED
from repro.trace.corpus import BENCHMARK_NAMES, load
from repro.trace.stats import characterize, format_table1


def table1(scale: float = 1.0, seed: int = DEFAULT_SEED) -> str:
    """Table 1: test program characteristics of the synthetic corpus."""
    stats = [
        characterize(load(name, scale=scale, seed=seed)) for name in BENCHMARK_NAMES
    ]
    return format_table1(stats)


def table2(scale: float = 1.0, seed: int = DEFAULT_SEED) -> str:
    """Table 2: advantages and disadvantages of WT and WB caches."""
    rows = [
        [row.feature, row.write_through, row.write_back]
        for row in compare_hit_policies()
    ]
    return format_table(
        ["feature", "write-through", "write-back"],
        rows,
        title="Table 2: Advantages and disadvantages of write-through and write-back caches",
    )


def table3(scale: float = 1.0, seed: int = DEFAULT_SEED) -> str:
    """Table 3: hardware requirements for high-performance caches."""
    wb = hardware_requirements(WriteHitPolicy.WRITE_BACK)
    wt = hardware_requirements(WriteHitPolicy.WRITE_THROUGH)
    rows = [[feature, wb[feature], wt[feature]] for feature in wb]
    return format_table(
        ["feature", "write-back", "write-through"],
        rows,
        title="Table 3: Hardware requirements for high performance caches",
    )
