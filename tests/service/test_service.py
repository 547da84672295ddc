"""End-to-end service behaviour over real HTTP.

The acceptance bar for the experiment service: results served over the
wire are bit-identical to a local pool run; overlapping submissions from
concurrent clients coalesce onto one computation (proved by an
exactly-once counter and the ``coalesced`` telemetry); a warm restart
serves the same job entirely from the store; the queue bound surfaces as
HTTP 429 and drain as HTTP 503; and a drain finishes accepted jobs.

Every server here binds port 0 (ephemeral) and uses a per-test store
directory, so tests neither collide with each other nor depend on
externally free ports.
"""

import threading
import time

import pytest

from repro.buffers.write_cache import WriteCacheConfig
from repro.cache.config import CacheConfig
from repro.exec.experiments import register_runner, unregister_runner
from repro.exec.keys import ExperimentSpec
from repro.exec.pool import ExperimentPool
from repro.exec.store import ResultStore
from repro.service.app import ExperimentService, ServiceServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import grid_request, specs_request

SCALE = 0.05
SEED = 1991


@pytest.fixture()
def serve(tmp_path):
    """Factory: spin up a service+server; everything stops at teardown."""
    started = []

    def _serve(**kwargs):
        kwargs.setdefault("store", ResultStore(tmp_path / "store"))
        kwargs.setdefault("jobs", 1)
        service = ExperimentService(**kwargs)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        server.start_background()
        started.append((service, server))
        return service, server, ServiceClient(server.url)

    yield _serve
    for service, server in started:
        service.begin_drain()
        service.stop()
        server.shutdown()


# -- a gated kind: lets tests hold a computation in flight deterministically


class _GateStats:
    kind = "gatetoy"

    def __init__(self, value=0):
        self.value = value

    def to_dict(self):
        return {"value": self.value}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def __eq__(self, other):
        return isinstance(other, _GateStats) and other.value == self.value


_GATE = threading.Event()
_COMPUTED = []
_COMPUTED_LOCK = threading.Lock()


def _run_gated(spec, trace):
    # jobs=1 pools run this inline in the submitting worker thread, so
    # the module-level gate and counter are shared with the test.
    assert _GATE.wait(timeout=30), "test gate never opened"
    with _COMPUTED_LOCK:
        _COMPUTED.append(spec)
    return _GateStats(value=spec.seed * 10 + len(trace))


@pytest.fixture()
def gated_kind():
    _GATE.clear()
    _COMPUTED.clear()
    register_runner(
        "gatetoy",
        _run_gated,
        _GateStats,
        engine_version="1",
        config_type=CacheConfig,
    )
    yield
    _GATE.set()
    unregister_runner("gatetoy")


def _gated_specs(seeds):
    return [
        ExperimentSpec("gatetoy", "ccom", SCALE, seed, CacheConfig(size=1024))
        for seed in seeds
    ]


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestResults:
    def test_service_results_bit_identical_to_local_run(self, serve, tmp_path):
        _, _, client = serve()
        configs = [WriteCacheConfig(entries=count) for count in (2, 4, 8)]
        workloads = ["ccom", "yacc"]
        submitted = client.submit(
            grid_request("write_cache", workloads, configs, scale=SCALE)
        )
        assert client.wait(submitted["id"])["state"] == "done"
        pairs, telemetry = client.result(submitted["id"])
        assert telemetry.computed == len(pairs) == 6

        # An entirely separate local pool (fresh store, no sharing with
        # the service) must produce the same stats objects.
        local_pool = ExperimentPool(store=ResultStore(tmp_path / "local"), jobs=1)
        local = local_pool.run_many([spec for spec, _ in pairs])
        for spec, stats in pairs:
            assert stats == local[spec]

    def test_submitting_again_serves_from_memo(self, serve):
        _, _, client = serve()
        payload = grid_request(
            "write_cache", ["ccom"], [WriteCacheConfig(entries=3)], scale=SCALE
        )
        first = client.submit(payload)
        client.wait(first["id"])
        second = client.submit(payload)
        client.wait(second["id"])
        _, telemetry = client.result(second["id"])
        assert telemetry.computed == 0
        assert telemetry.memory_hits == 1

    def test_warm_restart_serves_same_job_from_store(self, serve, tmp_path):
        store_root = tmp_path / "store"
        payload = grid_request(
            "write_cache",
            ["ccom", "grr"],
            [WriteCacheConfig(entries=count) for count in (1, 2)],
            scale=SCALE,
        )
        service, server, client = serve(store=ResultStore(store_root))
        first = client.submit(payload)
        client.wait(first["id"])
        _, cold = client.result(first["id"])
        assert cold.computed == 4
        service.drain(timeout=30)
        server.shutdown()

        # A brand-new process-equivalent: fresh service/pool/memo over
        # the same store directory.
        _, _, warm_client = serve(store=ResultStore(store_root))
        again = warm_client.submit(payload)
        warm_client.wait(again["id"])
        pairs, warm = warm_client.result(again["id"])
        assert warm.computed == 0
        assert warm.store_hits == 4
        assert len(pairs) == 4

    def test_failed_specs_fail_the_job_with_a_reason(self, serve, gated_kind):
        _GATE.set()  # run without blocking

        def _boom(spec, trace):
            raise RuntimeError("deliberate kaboom")

        register_runner(
            "gatetoy",
            _boom,
            _GateStats,
            engine_version="2",
            replace=True,
            config_type=CacheConfig,
        )
        _, _, client = serve()
        submitted = client.submit(specs_request(_gated_specs([1])))
        summary = client.wait(submitted["id"])
        assert summary["state"] == "failed"
        assert "kaboom" in summary["error"]
        with pytest.raises(ServiceError):
            client.result(submitted["id"])


class TestCoalescing:
    def test_overlapping_jobs_share_one_computation(self, serve, gated_kind):
        service, _, client = serve(workers=2)
        specs_a = _gated_specs([1, 2])
        specs_b = _gated_specs([2, 3])  # overlaps on seed 2

        job_a = client.submit(specs_request(specs_a, token="alice"))
        # Job A must be mid-flight (both specs claimed, runner at the
        # gate) before B submits, so the overlap is provably concurrent.
        assert _wait_until(lambda: len(service.ledger) == 2)
        job_b = client.submit(specs_request(specs_b, token="bob"))
        assert _wait_until(lambda: len(service.ledger) == 3)

        _GATE.set()
        summary_a = client.wait(job_a["id"])
        summary_b = client.wait(job_b["id"])
        assert summary_a["state"] == summary_b["state"] == "done"

        # Exactly once: three distinct specs, three computations total.
        assert len(_COMPUTED) == 3
        assert len(set(_COMPUTED)) == 3
        assert summary_a["coalesced"] == 0
        assert summary_b["coalesced"] == 1
        assert service.telemetry.coalesced == 1

        # The shared spec's stats are the same in both jobs.
        pairs_a, _ = client.result(job_a["id"])
        pairs_b, _ = client.result(job_b["id"])
        shared = specs_a[1]
        stats_a = dict(pairs_a)[shared]
        stats_b = dict(pairs_b)[shared]
        assert stats_a == stats_b

        # The subscriber's event stream labels the shared spec.
        sources = [
            event["source"]
            for event in client.events(job_b["id"])
            if event["type"] == "run"
        ]
        assert "coalesced" in sources

    def test_coalesced_result_identical_to_serial_run(self, serve, gated_kind):
        """Two overlapping clients vs one serial run: same bits."""
        service, _, client = serve(workers=2)
        specs_a = _gated_specs([5, 6])
        specs_b = _gated_specs([6, 7])
        job_a = client.submit(specs_request(specs_a, token="alice"))
        assert _wait_until(lambda: len(service.ledger) == 2)
        job_b = client.submit(specs_request(specs_b, token="bob"))
        assert _wait_until(lambda: len(service.ledger) == 3)
        _GATE.set()
        client.wait(job_a["id"])
        client.wait(job_b["id"])
        pairs = dict(client.result(job_a["id"])[0])
        pairs.update(dict(client.result(job_b["id"])[0]))

        serial = ExperimentPool(store=None, jobs=1).run_many(
            _gated_specs([5, 6, 7])
        )
        for spec, stats in serial.items():
            assert pairs[spec] == stats


class TestBackPressureAndDrain:
    def test_queue_full_surfaces_as_429(self, serve, gated_kind):
        _, _, client = serve(workers=1, queue_depth=2)
        # One job occupies the single worker at the gate...
        running = client.submit(specs_request(_gated_specs([1])))
        assert _wait_until(lambda: client.job(running["id"])["state"] == "running")
        # ...two more fill the queue...
        queued = [
            client.submit(specs_request(_gated_specs([seed])))
            for seed in (2, 3)
        ]
        # ...and the next bounces with 429.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(specs_request(_gated_specs([4])))
        assert excinfo.value.status == 429
        _GATE.set()
        for submitted in [running] + queued:
            assert client.wait(submitted["id"])["state"] == "done"

    def test_draining_surfaces_as_503_and_finishes_accepted(
        self, serve, gated_kind
    ):
        service, _, client = serve(workers=1)
        accepted = client.submit(specs_request(_gated_specs([1])))
        assert _wait_until(lambda: client.job(accepted["id"])["state"] == "running")
        service.begin_drain()
        assert client.health()["status"] == "draining"
        with pytest.raises(ServiceError) as excinfo:
            client.submit(specs_request(_gated_specs([2])))
        assert excinfo.value.status == 503
        assert service.telemetry.rejected_draining == 1
        _GATE.set()
        # The accepted job still runs to completion and persists.
        assert service.drain(timeout=30)
        assert client.job(accepted["id"])["state"] == "done"
        assert service.store.stats()["records"] == 1


class TestHttpSurface:
    def test_events_stream_and_resume(self, serve):
        _, _, client = serve()
        submitted = client.submit(
            grid_request(
                "write_cache", ["ccom"], [WriteCacheConfig(entries=2)], scale=SCALE
            )
        )
        events = list(client.events(submitted["id"]))
        types = [event["type"] for event in events]
        assert types[0] == "job" and types[-1] == "job"
        assert events[-1]["state"] == "done"
        assert "telemetry" in events[-1]
        # Resuming mid-log yields exactly the tail.
        tail = list(client.events(submitted["id"], start=len(events) - 1))
        assert tail == events[-1:]

    def test_store_catalog_endpoints(self, serve):
        _, _, client = serve()
        submitted = client.submit(
            grid_request(
                "write_cache", ["ccom"], [WriteCacheConfig(entries=2)], scale=SCALE
            )
        )
        client.wait(submitted["id"])
        stats = client.store_stats()
        assert stats["records"] == 1
        assert stats["by_kind"] == {"write_cache": 1}
        records = client.runs(kind="write_cache")
        assert len(records) == 1
        assert records[0]["kind"] == "write_cache"
        assert client.runs(kind="cache") == []

    def test_bad_requests_get_400_and_unknown_jobs_404(self, serve):
        _, _, client = serve()
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "no-such-kind", "workloads": ["x"], "configs": [{}]})
        assert excinfo.value.status == 400
        # A system config must name its levels: neither the flat
        # one-cache shape nor an empty object decodes to a default.
        flat = {"cache": CacheConfig(size=1024).to_dict(), "victim_entries": 4}
        for config in (flat, {}):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    {"kind": "system", "workloads": ["ccom"], "configs": [config]}
                )
            assert excinfo.value.status == 400, config
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_telemetry_endpoint_reports_counters(self, serve):
        service, _, client = serve()
        submitted = client.submit(
            grid_request(
                "write_cache", ["ccom"], [WriteCacheConfig(entries=2)], scale=SCALE
            )
        )
        client.wait(submitted["id"])
        snapshot = client.telemetry()
        assert snapshot["service"]["submitted"] == 1
        assert snapshot["service"]["completed"] == 1
        assert snapshot["jobs_by_state"] == {"done": 1}
        assert snapshot["draining"] is False
