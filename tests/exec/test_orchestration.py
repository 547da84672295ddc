"""End-to-end orchestration: runner/sweep integration and the acceptance
criterion — a parallel size-sweep is bit-identical to serial execution,
and a fresh process replays it entirely from the on-disk store."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.cache.config import CacheConfig
from repro.core import runner
from repro.core.sweep import CACHE_SIZES_KB, size_sweep_configs, sweep_experiments
from repro.exec import pool as pool_module
from repro.exec.store import ResultStore
from repro.trace.corpus import BENCHMARK_NAMES

SCALE = 0.05
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture()
def fresh_runner(tmp_path):
    """Empty memo + private store; restores the session store afterwards."""
    saved_store = runner.get_store()
    saved_memo = dict(runner._run_cache)
    runner.clear_run_cache()
    runner.set_store(ResultStore(tmp_path / "store"))
    yield runner
    runner.clear_run_cache()
    runner._run_cache.update(saved_memo)
    runner.set_store(saved_store)


def test_run_uses_memory_then_disk(fresh_runner, monkeypatch):
    config = CacheConfig(size="1KB")
    first = runner.run("ccom", config, scale=SCALE)
    # Disk only: clear the memo and forbid computation.
    runner.clear_run_cache()
    monkeypatch.setattr(
        pool_module, "_execute", lambda key: pytest.fail("should be a store hit")
    )
    assert runner.run("ccom", config, scale=SCALE) == first
    # Memory: remove the store as well; the memo was refilled above.
    runner.set_store(None)
    assert runner.run("ccom", config, scale=SCALE) == first


def test_size_sweep_parallel_matches_serial(fresh_runner, tmp_path):
    """CACHE_SIZES_KB x 6 workloads: jobs>1 must be bit-identical to serial."""
    configs = size_sweep_configs()
    keys = runner.suite_keys(configs, BENCHMARK_NAMES, scale=SCALE)
    assert len(keys) == len(CACHE_SIZES_KB) * len(BENCHMARK_NAMES)
    pool_module.reset_aggregate_telemetry()

    parallel = runner.resolve(keys, jobs=2)
    assert list(parallel) == keys
    assert pool_module.aggregate_telemetry().computed == len(keys)

    # Serial reference: fresh memo, fresh store, jobs=1.
    runner.clear_run_cache()
    runner.set_store(ResultStore(tmp_path / "serial-store"))
    pool_module.reset_aggregate_telemetry()
    serial = runner.resolve(keys, jobs=1)
    assert pool_module.aggregate_telemetry().computed == len(keys)
    for key in keys:
        assert serial[key] == parallel[key], key.describe()


def test_sweep_prefetches_grid(fresh_runner):
    configs = size_sweep_configs()[:2]
    pool_module.reset_aggregate_telemetry()
    series = sweep_experiments(
        "cache", configs, lambda stats: stats.miss_ratio, scale=SCALE, jobs=2
    )
    assert set(series) == set(BENCHMARK_NAMES) | {"average"}
    # The whole grid resolved in one batch: nothing was requested twice.
    requested = pool_module.aggregate_telemetry().requested
    assert requested == len(configs) * len(BENCHMARK_NAMES)
    store = runner.get_store()
    assert store.telemetry.writes == len(configs) * len(BENCHMARK_NAMES)


def test_fresh_process_rerun_is_all_store_hits(tmp_path):
    """Second *process* running the same sweep performs zero simulations."""
    script = textwrap.dedent(
        """
        from repro.core import runner
        from repro.core.sweep import size_sweep_configs
        from repro.exec.pool import aggregate_telemetry
        from repro.trace.corpus import BENCHMARK_NAMES

        configs = size_sweep_configs()[:3]
        keys = runner.suite_keys(configs, BENCHMARK_NAMES[:2], scale=0.05)
        runner.resolve(keys, jobs=2)
        telemetry = aggregate_telemetry()
        print("computed", telemetry.computed, "store", telemetry.store_hits)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_RESULT_DIR"] = str(tmp_path / "shared-store")

    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.strip())
    assert outputs[0] == "computed 6 store 0"
    assert outputs[1] == "computed 0 store 6"


def test_cross_process_determinism_without_store(tmp_path):
    """Two processes with different hash seeds compute identical stats.

    The store's whole premise is that (workload, scale, seed, config)
    determines the result; a process-dependent trace (e.g. seeding from
    randomised ``str.hash()``) would let whichever process ran first pin
    its answer for everyone else.
    """
    script = textwrap.dedent(
        """
        import json
        from repro.cache.config import CacheConfig
        from repro.cache.fastsim import simulate_trace
        from repro.trace.corpus import load

        for name in ("ccom", "grr", "liver"):
            stats = simulate_trace(
                load(name, scale=0.05, seed=1991), CacheConfig(size="1KB")
            )
            print(json.dumps(stats.to_dict(), sort_keys=True))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_RESULT_DIR"] = "off"

    outputs = []
    for hash_seed in ("1", "4242"):
        env["PYTHONHASHSEED"] = hash_seed
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
