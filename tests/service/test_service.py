"""End-to-end service behaviour over real HTTP.

The acceptance bar for the experiment service: results served over the
wire are bit-identical to a local pool run; overlapping submissions from
concurrent clients coalesce onto one computation (proved by an
exactly-once counter and the ``coalesced`` telemetry), and a job whose
overlap partner failed computes the shared spec itself; a warm restart
serves the same job entirely from the store; a job served from memo or
store finishes while another job computes; the queue bound surfaces as
HTTP 429 and drain as HTTP 503; and a drain finishes accepted jobs.

Every server here binds port 0 (ephemeral) and uses a per-test store
directory, so tests neither collide with each other nor depend on
externally free ports.
"""

import http.client
import json
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
_AT_GATE = threading.Event()
_COMPUTED = []
_COMPUTED_LOCK = threading.Lock()
#: spec -> tries left that raise instead of computing.
_FAILURES = {}


def _run_gated(specs, trace):
    # jobs=1 pools run this inline in the submitting worker thread, under
    # the pool lock, so the module-level gate and counter are shared with
    # the test.  Gated specs differ by seed, so each is its own task.
    (spec,) = specs
    _AT_GATE.set()
    assert _GATE.wait(timeout=30), "test gate never opened"
    with _COMPUTED_LOCK:
        if _FAILURES.get(spec, 0) > 0:
            _FAILURES[spec] -= 1
            raise RuntimeError("deliberate owner failure")
        _COMPUTED.append(spec)
    return [_GateStats(value=spec.seed * 10 + len(trace))], {}


@pytest.fixture()
def gated_kind():
    _GATE.clear()
    _AT_GATE.clear()
    _COMPUTED.clear()
    _FAILURES.clear()
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


def _run_events(service, job_id):
    events, _ = service.job(job_id).wait_events(0, timeout=0)
    return [event for event in events if event["type"] == "run"]


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

        def _boom(specs, trace):
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


def _overlap(service, client, specs_a, specs_b):
    """Hold job A computing at the closed gate, then submit job B.

    B gets ``specs_b`` followed by a memo-primed spec, and this returns
    once B reported that spec as a ``memory`` hit: B's lookup walked
    ``specs_b`` before it, and found them pending because the gate is
    still closed.  Then the gate opens and A finishes while B waits on
    the pool lock.
    """
    primed = _write_cache_specs((3,))
    client.wait(client.submit(specs_request(primed))["id"])
    job_a = client.submit(specs_request(specs_a, token="alice"))
    assert _AT_GATE.wait(timeout=10)  # A holds the pool lock, mid-compute
    job_b = client.submit(specs_request(specs_b + primed, token="bob"))
    assert _wait_until(
        lambda: any(
            event["source"] == "memory"
            for event in _run_events(service, job_b["id"])
        )
    )
    _GATE.set()
    return job_a, job_b


class TestCoalescing:
    def test_overlapping_jobs_share_one_computation(self, serve, gated_kind):
        service, _, client = serve(workers=2)
        specs_a = _gated_specs([1, 2])
        specs_b = _gated_specs([2, 3])  # overlaps on seed 2, listed first
        job_a, job_b = _overlap(service, client, specs_a, specs_b)
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

        # The waiting job's event stream labels the shared spec.
        sources = [
            event["source"]
            for event in client.events(job_b["id"])
            if event["type"] == "run"
        ]
        assert "coalesced" in sources

    def test_coalesced_result_identical_to_serial_run(self, serve, gated_kind):
        """Two overlapping clients vs one serial run: same bits."""
        service, _, client = serve(workers=2)
        job_a, job_b = _overlap(
            service, client, _gated_specs([5, 6]), _gated_specs([6, 7])
        )
        client.wait(job_a["id"])
        client.wait(job_b["id"])
        assert client.job(job_b["id"])["coalesced"] == 1
        pairs = dict(client.result(job_a["id"])[0])
        pairs.update(dict(client.result(job_b["id"])[0]))

        serial = ExperimentPool(store=None, jobs=1).run_many(
            _gated_specs([5, 6, 7])
        )
        for spec, stats in serial.items():
            assert pairs[spec] == stats

    def test_waiting_job_computes_what_a_failed_owner_left(
        self, serve, gated_kind
    ):
        service, _, client = serve(workers=2)
        shared = _gated_specs([8])
        # The owner fails every try its retry budget allows.
        _FAILURES[shared[0]] = service.pool.retries + 1
        job_a, job_b = _overlap(service, client, shared, shared)
        assert client.wait(job_a["id"])["state"] == "failed"
        summary_b = client.wait(job_b["id"])
        assert summary_b["state"] == "done"
        assert summary_b["coalesced"] == 0
        assert _COMPUTED == shared
        pairs, telemetry = client.result(job_b["id"])
        assert telemetry.computed == 1
        serial = ExperimentPool(store=None, jobs=1).run_many(shared)
        assert dict(pairs)[shared[0]] == serial[shared[0]]


def _write_cache_specs(entries=(2, 4)):
    return [
        ExperimentSpec(
            "write_cache", "ccom", SCALE, SEED, WriteCacheConfig(entries=count)
        )
        for count in entries
    ]


class TestCachedJobsSkipTheLock:
    @pytest.mark.parametrize("warm_from", ["memo", "store"])
    def test_cached_job_finishes_while_another_computes(
        self, serve, gated_kind, tmp_path, warm_from
    ):
        cached = specs_request(_write_cache_specs())
        if warm_from == "store":
            ExperimentPool(store=ResultStore(tmp_path / "store"), jobs=1).run_many(
                _write_cache_specs()
            )
        service, _, client = serve(workers=2)
        if warm_from == "memo":
            client.wait(client.submit(cached)["id"])

        # Job A holds the pool lock, computing at the closed gate.
        job_a = client.submit(specs_request(_gated_specs([1])))
        assert _AT_GATE.wait(timeout=10)

        job_b = client.submit(cached)
        assert _wait_until(lambda: client.job(job_b["id"])["state"] == "done")
        assert client.job(job_a["id"])["state"] == "running"
        assert _COMPUTED == []
        _, telemetry = client.result(job_b["id"])
        assert telemetry.computed == 0
        hits = telemetry.memory_hits if warm_from == "memo" else telemetry.store_hits
        assert hits == 2

        _GATE.set()
        assert client.wait(job_a["id"])["state"] == "done"
        assert len(_COMPUTED) == 1
        # Each job's events report its own specs only.
        assert [
            ExperimentSpec.from_dict(event["key"])
            for event in _run_events(service, job_a["id"])
        ] == _gated_specs([1])

    def test_lookup_only_job_telemetry(self, serve):
        _, _, client = serve()
        cached = specs_request(_write_cache_specs())
        client.wait(client.submit(cached)["id"])
        before = client.telemetry()["pool"]
        again = client.submit(cached)
        terminal = list(client.events(again["id"]))[-1]
        _, result = client.result(again["id"])
        after = client.telemetry()["pool"]
        delta = {name: after[name] - before[name] for name in after}
        assert terminal["state"] == "done"
        for counters in (terminal["telemetry"], result.to_dict(), delta):
            assert counters["computed"] == 0
            assert counters["memory_hits"] + counters["store_hits"] == 2
            assert counters["deduplicated"] == 2


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


def _post_raw_job(server, raw):
    """POST ``raw`` JSON text to ``/v1/jobs``; returns (status, reply)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        connection.request(
            "POST",
            "/v1/jobs",
            body=raw.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


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

    @pytest.mark.parametrize("form", ["grid", "specs"])
    @pytest.mark.parametrize("field", ["priority", "seed"])
    def test_out_of_range_number_gets_400(self, serve, form, field):
        # 1e400 parses to float infinity, which int() cannot convert.
        _, server, _ = serve()
        if form == "grid":
            body = {"kind": "cache", "workloads": ["ccom"], "configs": [{}]}
        else:
            spec = ExperimentSpec("cache", "ccom", SCALE, SEED, CacheConfig())
            body = {"specs": [spec.to_dict()]}
        target = body if field == "priority" or form == "grid" else body["specs"][0]
        target[field] = "OUT_OF_RANGE"
        raw = json.dumps(body).replace('"OUT_OF_RANGE"', "1e400")
        status, reply = _post_raw_job(server, raw)
        assert status == 400
        assert "error" in reply

    @pytest.mark.parametrize("form", ["grid", "specs"])
    @pytest.mark.parametrize("value", ["1e400", "NaN", "0", "-1"])
    def test_unusable_scale_gets_400(self, serve, form, value):
        # Accepted, such a scale would only fail later, in a worker.
        _, server, _ = serve()
        if form == "grid":
            body = {"kind": "cache", "workloads": ["ccom"], "configs": [{}]}
            target = body
        else:
            spec = ExperimentSpec("cache", "ccom", SCALE, SEED, CacheConfig())
            body = {"specs": [spec.to_dict()]}
            target = body["specs"][0]
        target["scale"] = "V"
        status, reply = _post_raw_job(server, json.dumps(body).replace('"V"', value))
        assert status == 400
        assert "scale" in reply["error"], reply

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("write_cache", "entries"),
            ("write_cache", "line_size"),
            ("write_buffer", "entries"),
            ("write_buffer", "entry_size"),
            ("write_buffer", "retire_interval"),
            ("victim_buffer", "entries"),
            ("victim_buffer", "retire_interval"),
        ],
    )
    def test_non_integer_buffer_count_gets_400(self, serve, kind, field):
        # Each would otherwise be stored under its own spelling of the
        # key (wc_entries=inf, wc_entries=16.0, wc_entries=True).
        _, server, _ = serve()
        for value in ("1e400", "16.0", "true"):
            body = {"kind": kind, "workloads": ["ccom"], "configs": [{field: "V"}]}
            raw = json.dumps(body).replace('"V"', value)
            status, reply = _post_raw_job(server, raw)
            assert status == 400, (field, value)
            assert field in reply["error"], reply

    @pytest.mark.parametrize("policy", ["forward", "drain"])
    def test_retired_read_policy_gets_400(self, serve, policy):
        _, _, client = serve()
        config = {"read_policy": policy}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(
                {"kind": "write_buffer", "workloads": ["ccom"], "configs": [config]}
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("path", ["/v1/jobs", "/v1/traces"])
    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_gets_400(self, serve, path, length):
        _, server, _ = serve()
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in response.read().decode("utf-8")
        finally:
            connection.close()

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
