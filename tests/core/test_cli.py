"""Tests of the top-level CLI (python -m repro)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.exec import pool as pool_module
from repro.service import app as app_module

from tests.conftest import TEST_SCALE

SCALE = str(TEST_SCALE)


class TestSimulate:
    def test_benchmark_default(self, capsys):
        assert main(["simulate", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        assert "derived metrics" in out
        assert "miss ratio" in out

    def test_policy_flags(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--benchmark",
                    "liver",
                    "--scale",
                    SCALE,
                    "--write-hit",
                    "write-through",
                    "--write-miss",
                    "write-validate",
                    "--size",
                    "4KB",
                    "--line",
                    "32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "write-validate" in out
        assert "validate_allocations" in out

    def test_trace_file_input(self, capsys, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("r 1000 4\nw 1000 4\nw 2000 8 3\n")
        assert main(["simulate", "--trace", str(path)]) == 0
        assert "trace:" in capsys.readouterr().out

    def test_din_file_input(self, capsys, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("2 0\n0 1000\n1 1004\n")
        assert main(["simulate", "--din", str(path)]) == 0

    def test_subblock_and_replacement_flags(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--scale",
                    SCALE,
                    "--assoc",
                    "2",
                    "--replacement",
                    "fifo",
                    "--subblock-fetch",
                    "--subblock-writeback",
                ]
            )
            == 0
        )

    def test_invalid_combo_raises(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(
                [
                    "simulate",
                    "--scale",
                    SCALE,
                    "--write-miss",
                    "write-around",  # requires write-through
                ]
            )


class TestOtherCommands:
    def test_figures(self, capsys):
        assert main(["figures", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1", "--scale", SCALE]) == 0
        assert "ccom" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestErrorExits:
    @pytest.mark.parametrize(
        "variable,value,read",
        [
            ("REPRO_JOBS", "abc", pool_module.default_jobs),
            ("REPRO_RETRIES", "x", pool_module.default_retries),
            ("REPRO_TASK_TIMEOUT", "soon", pool_module.default_task_timeout),
            ("REPRO_SERVE_PORT", "http", app_module.default_port),
            ("REPRO_SERVE_PORT", "70000", app_module.default_port),
            ("REPRO_SERVE_PORT", "-1", app_module.default_port),
        ],
    )
    def test_malformed_env_toggle(self, monkeypatch, variable, value, read):
        # CLI flags set process-wide overrides; clear them so the
        # environment is what gets read.
        monkeypatch.setattr(pool_module, "_default_jobs_override", None)
        for override in ("_default_retries_override", "_default_timeout_override"):
            monkeypatch.setattr(pool_module, override, pool_module._UNSET)
        monkeypatch.setenv(variable, value)
        with pytest.raises(ConfigurationError, match=variable):
            read()

    @staticmethod
    def run_module(args, result_dir):
        """``python -m repro <args>``; asserts one ``repro:`` line, exit 2."""
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REPRO_RESULT_DIR"] = result_dir
        result = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: "), result.stderr
        assert "Traceback" not in result.stderr
        return lines[0]

    @pytest.mark.parametrize(
        "name,content", [("missing.trace", None), ("bad.trace", "r zz 4\n")]
    )
    def test_module_entry_reports_one_line(self, tmp_path, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        self.run_module(["simulate", "--trace", str(path)], "off")

    def test_corrupt_catalog_record_reports_one_line(self, tmp_path):
        from repro.trace.catalog import CATALOG_DIRNAME, TraceCatalog

        store = tmp_path / "store"
        capture = tmp_path / "capture.trace"
        capture.write_text("".join(f"r {i * 16:x} 4\n" for i in range(64)))
        catalog = TraceCatalog(store / CATALOG_DIRNAME)
        digest = catalog.add(str(capture))["hash"]
        catalog.record_path(digest).write_text("garbage{", encoding="utf-8")
        line = self.run_module(
            ["sweep", "--workload", f"ingested:{digest}", "--axis", "size"],
            str(store),
        )
        assert str(catalog.record_path(digest)) in line
        assert "store gc" in line


class TestCsvExport:
    def test_figure_to_csv(self):
        from repro.core.figures import get_figure

        result = get_figure("fig01", scale=TEST_SCALE)
        csv = result.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("line size (B),")
        assert len(lines) == 1 + len(result.x_values)
        assert len(lines[1].split(",")) == 1 + len(result.series)
