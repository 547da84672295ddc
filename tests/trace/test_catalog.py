"""Trace catalog: content-hash dedup, warm reruns, gc quarantine."""

import gzip
import json

import pytest

from repro.cache.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.core.runner import experiment_key
from repro.exec.pool import ExperimentPool
from repro.exec.store import ResultStore
from repro.trace import corpus
from repro.trace.catalog import (
    INGESTED_PREFIX,
    TraceCatalog,
    open_default_catalog,
)

TEXT = "".join(f"r {i * 16:x} 4\nw {i * 16 + 4:x} 4 2\n" for i in range(300))


@pytest.fixture()
def catalog(tmp_path):
    return TraceCatalog(tmp_path / "traces")


class TestDedup:
    def test_same_stream_two_files_one_gzipped_one_entry(self, catalog, tmp_path):
        plain = tmp_path / "capture.trace"
        plain.write_text(TEXT)
        compressed = tmp_path / "other-name.trc.gz"
        compressed.write_bytes(gzip.compress(TEXT.encode()))

        first = catalog.add(str(plain))
        second = catalog.add(str(compressed))
        assert first["hash"] == second["hash"]
        assert first["duplicate"] is False
        assert second["duplicate"] is True
        assert len(catalog.ls()) == 1
        # The surviving record keeps the first ingest's metadata.
        assert catalog.get(first["hash"])["name"] == "capture.trace"

    def test_loaded_trace_matches_source(self, catalog, tmp_path):
        path = tmp_path / "capture.trace"
        path.write_text(TEXT)
        record = catalog.add(str(path))
        trace = catalog.load(record["hash"])
        assert len(trace) == record["refs"] == 600
        assert trace.name == f"{INGESTED_PREFIX}{record['hash'][:12]}"

    def test_prefix_resolution(self, catalog, tmp_path):
        path = tmp_path / "capture.trace"
        path.write_text(TEXT)
        record = catalog.add(str(path))
        assert catalog.resolve(record["hash"][:8]) == record["hash"]
        with pytest.raises(ConfigurationError):
            catalog.resolve("no-such-hash")


class TestWarmRerun:
    def test_ingested_workload_warm_rerun_computes_zero(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULT_DIR", str(tmp_path / "store"))
        corpus.clear_cache()
        catalog = open_default_catalog()
        source = tmp_path / "capture.trace"
        source.write_text(TEXT)
        record = catalog.add(str(source))
        workload = f"{INGESTED_PREFIX}{record['hash']}"
        specs = [
            experiment_key("cache", workload, CacheConfig(size=size, line_size=16))
            for size in (256, 1024)
        ]
        store = ResultStore(tmp_path / "store")
        cold = ExperimentPool(store=store, jobs=1)
        expected = cold.run_many(specs)
        assert cold.telemetry.computed == len(specs)

        corpus.clear_cache()  # fresh process simulation: no memoised trace
        warm = ExperimentPool(store=store, jobs=1)
        results = warm.run_many(specs)
        assert warm.telemetry.computed == 0
        for spec in specs:
            assert results[spec].to_dict() == expected[spec].to_dict()

    def test_ingested_needs_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_DIR", "off")
        corpus.clear_cache()
        with pytest.raises(ConfigurationError) as excinfo:
            corpus.load(INGESTED_PREFIX + "0" * 64)
        assert "result store" in str(excinfo.value)


class TestGc:
    def test_missing_payload_quarantined_not_deleted(self, catalog, tmp_path):
        path = tmp_path / "capture.trace"
        path.write_text(TEXT)
        record = catalog.add(str(path))
        catalog.payload_path(record["hash"]).unlink()

        kept, quarantined = catalog.gc()
        assert (kept, quarantined) == (0, 1)
        assert catalog.ls() == []
        envelopes = list(catalog.quarantine_dir.glob("*.json"))
        assert len(envelopes) == 1
        envelope = json.loads(envelopes[0].read_text())
        assert envelope["reason"] == "missing-trace-payload"
        assert record["hash"] in json.dumps(envelope["raw"])

    def test_load_missing_payload_points_at_gc(self, catalog, tmp_path):
        path = tmp_path / "capture.trace"
        path.write_text(TEXT)
        record = catalog.add(str(path))
        catalog.payload_path(record["hash"]).unlink()
        with pytest.raises(ConfigurationError) as excinfo:
            catalog.load(record["hash"])
        assert "store gc" in str(excinfo.value)

    def test_corrupt_record_raises_typed_error_until_gc(self, catalog, tmp_path):
        path = tmp_path / "capture.trace"
        path.write_text(TEXT)
        record = catalog.add(str(path))
        record_path = catalog.record_path(record["hash"])
        record_path.write_text("garbage{", encoding="utf-8")
        for read in (catalog.get, catalog.load):
            with pytest.raises(ConfigurationError) as excinfo:
                read(record["hash"])
            assert str(record_path) in str(excinfo.value)
            assert "store gc" in str(excinfo.value)
        assert catalog.gc() == (0, 1)
        envelope = json.loads((catalog.quarantine_dir / record_path.name).read_text())
        assert envelope["reason"] == "parse-error"
        assert envelope["raw"] == "garbage{"
        assert catalog.add(str(path))["duplicate"] is False
        assert len(catalog.load(record["hash"])) == 600

    def test_store_gc_cli_covers_catalog(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RESULT_DIR", str(tmp_path / "store"))
        catalog = open_default_catalog()
        path = tmp_path / "capture.trace"
        path.write_text(TEXT)
        record = catalog.add(str(path))
        catalog.payload_path(record["hash"]).unlink()
        assert main(["store", "gc"]) == 0
        out = capsys.readouterr().out
        assert "trace catalog: kept 0, quarantined 1" in out
        assert catalog.quarantine_dir.exists()

    def test_rm_removes_record_and_payload(self, catalog, tmp_path):
        path = tmp_path / "capture.trace"
        path.write_text(TEXT)
        record = catalog.add(str(path))
        assert catalog.rm(record["hash"]) is True
        assert catalog.ls() == []
        assert not catalog.payload_path(record["hash"]).exists()
        assert catalog.rm(record["hash"]) is False


class TestCli:
    def test_trace_add_ls_rm_roundtrip(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RESULT_DIR", str(tmp_path / "store"))
        source = tmp_path / "capture.trace.gz"
        source.write_bytes(gzip.compress(TEXT.encode()))

        assert main(["trace", "add", str(source)]) == 0
        out = capsys.readouterr().out
        digest = [
            line.split()[-1] for line in out.splitlines() if line.startswith("hash:")
        ][0]
        assert f"workload: {INGESTED_PREFIX}{digest}" in out

        assert main(["trace", "ls", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [record["hash"] for record in listing["traces"]] == [digest]

        assert main(["trace", "rm", digest[:10]]) == 0
        capsys.readouterr()
        assert main(["trace", "ls", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["traces"] == []

    def test_trace_add_bad_input_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RESULT_DIR", str(tmp_path / "store"))
        source = tmp_path / "bad.trace"
        source.write_text("r zz 4\n")
        assert main(["trace", "add", str(source)]) == 1
        assert "line 1" in capsys.readouterr().err
        assert open_default_catalog().ls() == []

    def test_trace_disabled_store(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RESULT_DIR", "off")
        assert main(["trace", "ls"]) == 1
        assert "disabled" in capsys.readouterr().err
