"""Write-traffic reduction: write buffer vs write cache vs write-back.

Reproduces Section 3's comparison interactively: how much exit-write
traffic does each structure remove from a write-through cache, and what
does it cost in CPU stalls?

Usage::

    python examples/write_traffic_reduction.py [benchmark] [--scale 0.25]
"""

import argparse

from repro import CacheConfig, CacheSystem, CoalescingWriteBuffer, WriteCache, load_trace
from repro.cache.policies import WriteHitPolicy
from repro.common.render import format_table
from repro.core.runner import run
from repro.hierarchy import HierarchyConfig, LevelConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="yacc")
    parser.add_argument("--scale", type=float, default=0.25)
    args = parser.parse_args()

    trace = load_trace(args.benchmark, scale=args.scale)
    total_writes = trace.write_count
    rows = []

    # 1. Coalescing write buffers at several retirement speeds.
    for interval in (2, 8, 24):
        stats = CoalescingWriteBuffer(entries=8, retire_interval=interval).simulate(trace)
        rows.append(
            [
                f"8-entry write buffer, retire every {interval}",
                f"{100 * stats.merge_fraction:.1f}%",
                f"{stats.stall_cpi:.3f}",
            ]
        )

    # 2. Write caches of a few sizes (never stall).
    for entries in (1, 5, 15):
        stats = WriteCache(entries=entries).run_writes(trace)
        rows.append(
            [f"{entries}-entry write cache", f"{100 * stats.fraction_removed:.1f}%", "0"]
        )

    # 3. Write-back caches (the upper bound the write cache chases).
    for size in ("4KB", "32KB"):
        config = CacheConfig(size=size, line_size=16)
        stats = run(args.benchmark, config, scale=args.scale)
        rows.append(
            [
                f"{size} write-back cache",
                f"{100 * stats.fraction_writes_to_dirty:.1f}%",
                "n/a",
            ]
        )

    print(f"{args.benchmark}: {total_writes} writes")
    print()
    print(
        format_table(
            ["structure", "writes removed", "stall CPI"],
            rows,
            title="Exit write-traffic reduction (Section 3)",
        )
    )
    print()
    print(
        "The write buffer only merges when retirement is slow (which\n"
        "stalls the CPU); the write cache removes a large fraction at\n"
        "zero stall cost, approaching the write-back cache's reduction."
    )

    # Bonus: show the same thing end-to-end through a composed system.
    l1 = CacheConfig(size="8KB", line_size=16, write_hit=WriteHitPolicy.WRITE_THROUGH)
    system = CacheSystem(
        HierarchyConfig(levels=(LevelConfig(cache=l1, write_cache_entries=5),))
    )
    system.run(trace)
    meter = system.memory_traffic
    print()
    print(
        f"composed system (8KB WT L1 + 5-entry write cache): "
        f"{meter.write_transactions} write transactions reached memory "
        f"for {total_writes} CPU stores"
    )


if __name__ == "__main__":
    main()
