"""Wire protocol: job-request decoding, grid expansion, validation."""

import json

import pytest

from repro.buffers.write_cache import WriteCacheConfig
from repro.cache.config import CacheConfig
from repro.exec.keys import ExperimentSpec
from repro.hierarchy.system import HierarchyConfig
from repro.service.protocol import (
    DEFAULT_TOKEN,
    ProtocolError,
    grid_request,
    parse_job_request,
    specs_request,
)

SPEC = ExperimentSpec("write_cache", "ccom", 0.05, 7, WriteCacheConfig(entries=4))

#: The pre-hierarchy flat ``system`` config shape: one cache, no levels.
FLAT_SYSTEM_CONFIG = {"cache": CacheConfig(size=1024).to_dict(), "victim_entries": 4}


def system_specs_payload(config_payload):
    """A ``specs`` request whose one system spec carries ``config_payload``."""
    spec = ExperimentSpec("system", "ccom", 0.05, 7, HierarchyConfig()).to_dict()
    spec["config"] = config_payload
    return {"specs": [spec]}


class TestGridRequests:
    def test_grid_expands_workload_major(self):
        payload = grid_request(
            "write_cache",
            ["ccom", "yacc"],
            [WriteCacheConfig(entries=2), WriteCacheConfig(entries=3)],
            scale=0.05,
            seed=7,
        )
        request = parse_job_request(json.loads(json.dumps(payload)))
        order = [(spec.workload, spec.config.entries) for spec in request.specs]
        # Workload-major: each workload's whole config grid is contiguous,
        # so the pool's batched dispatch sees maximal per-trace groups.
        assert order == [("ccom", 2), ("ccom", 3), ("yacc", 2), ("yacc", 3)]
        assert all(spec.scale == 0.05 and spec.seed == 7 for spec in request.specs)

    def test_grid_defaults_match_local_runner(self):
        from repro.core.runner import DEFAULT_SEED

        payload = grid_request("cache", ["ccom"], [CacheConfig(size=1024)])
        request = parse_job_request(payload)
        # Identical defaults mean a service submission addresses the same
        # store records a local `repro sweep` does.
        assert request.specs[0].seed == DEFAULT_SEED
        assert request.specs[0].flush is True

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"kind": "no-such-kind"}, "no-such-kind"),
            ({"workloads": []}, "workloads"),
            ({"configs": []}, "configs"),
            ({"configs": [{"entries": 2, "surprise": 1}]}, "config"),
            ({"scale": "not-a-number"}, "grid parameters"),
        ],
    )
    def test_bad_grids_rejected(self, mutation, match):
        payload = grid_request(
            "write_cache", ["ccom"], [WriteCacheConfig(entries=2)]
        )
        payload.update(mutation)
        with pytest.raises(ProtocolError, match=match):
            parse_job_request(payload)


class TestSpecRequests:
    def test_explicit_specs_round_trip(self):
        request = parse_job_request(
            json.loads(json.dumps(specs_request([SPEC], priority=3, token="abc")))
        )
        assert request.specs == (SPEC,)
        assert request.priority == 3
        assert request.token == "abc"

    def test_duplicates_dropped_but_counted(self):
        request = parse_job_request(specs_request([SPEC, SPEC, SPEC]))
        assert request.specs == (SPEC,)
        assert request.requested == 3

    def test_defaults(self):
        request = parse_job_request(specs_request([SPEC]))
        assert request.priority == 0
        assert request.token == DEFAULT_TOKEN

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            "nope",
            {"specs": []},
            {"specs": ["nope"]},
            {"specs": [{"kind": "cache"}]},
            {},
            system_specs_payload(FLAT_SYSTEM_CONFIG),
            system_specs_payload({}),
        ],
    )
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ProtocolError):
            parse_job_request(payload)
