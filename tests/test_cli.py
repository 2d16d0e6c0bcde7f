"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.os == "ubuntu" and args.mode == "regular"

    def test_scan_arguments(self):
        args = build_parser().parse_args(
            ["scan", "--sites", "100", "--front-only"])
        assert args.sites == 100 and args.front_only


class TestCommands:
    def test_survey(self, capsys):
        code, out = run_cli(capsys, ["survey"])
        assert code == 0
        assert out["table1"]["total"] == 72
        assert out["table14"]["outdated_days"] == 540

    def test_audit_regular(self, capsys):
        code, out = run_cli(capsys, ["audit", "--mode", "regular"])
        assert code == 0
        assert out["detected"] is True
        assert out["tampered_properties"] == 252

    def test_audit_without_instrument(self, capsys):
        code, out = run_cli(capsys, ["audit", "--no-instrument"])
        assert code == 0
        assert out["tampered_properties"] == 0
        assert out["detected"] is True  # webdriver still gives it away

    def test_scan_small(self, capsys):
        code, out = run_cli(capsys, ["scan", "--sites", "40",
                                     "--front-only", "--seed", "3"])
        assert code == 0
        assert out["sites"] == 40
        assert "table5" in out and "table11" in out

    def test_attack(self, capsys):
        code, out = run_cli(capsys, ["attack"])
        assert code == 0
        assert out["block-recording"]["vs_wpm"] is True
        assert out["block-recording"]["vs_wpm_hide"] is False
        assert out["sql-injection"]["database_corrupted"] is False

    def test_compare_tiny(self, capsys):
        code, out = run_cli(capsys, ["compare", "--sites", "60",
                                     "--repetitions", "1"])
        assert code == 0
        assert out["detector_sites"] > 0
        assert 0.0 <= out["cookie_wilcoxon_p"] <= 1.0


class TestCrawlCommand:
    def test_crawl_in_memory_drains(self, capsys):
        code, out = run_cli(capsys, ["crawl", "--sites", "20",
                                     "--workers", "2", "--json"])
        assert code == 0
        assert out["drained"] is True
        assert out["completed"] + out["failed"] == 20
        assert out["queue"] == ":memory:"

    def test_crawl_resume_needs_file_queue(self, capsys):
        code = main(["crawl", "--sites", "5", "--resume"])
        captured = capsys.readouterr()
        assert code == 2
        assert "file-backed queue" in captured.err

    def test_crawl_interrupt_then_resume(self, tmp_path, capsys):
        db = str(tmp_path / "crawl.sqlite")
        code, out = run_cli(capsys, [
            "crawl", "--sites", "30", "--workers", "2", "--db", db,
            "--stop-after", "10", "--crash-probability", "0",
            "--json"])
        assert code == 1  # not drained
        assert out["interrupted"] is True
        assert out["queue"] == f"{db}.queue"

        code, out = run_cli(capsys, [
            "crawl", "--sites", "30", "--workers", "2", "--db", db,
            "--crash-probability", "0", "--resume", "--json"])
        assert code == 0
        assert out["resumed"] is True
        assert out["drained"] is True
        assert out["queue_counts"]["completed"] == 30

    def test_stats_reads_crawl_queue(self, tmp_path, capsys):
        db = str(tmp_path / "crawl.sqlite")
        assert run_cli(capsys, ["crawl", "--sites", "15",
                                "--workers", "2", "--db", db,
                                "--json"])[0] == 0
        code, out = run_cli(capsys, ["stats", "--db", db,
                                     "--queue", f"{db}.queue",
                                     "--json"])
        assert code == 0
        assert out["scheduler"]["jobs_completed"] \
            + out["scheduler"]["jobs_failed"] == 15
        assert out["queue"]["drained"] is True
        assert out["reconciled"] is True


class TestObservabilityCommands:
    @pytest.fixture(scope="class")
    def journalled_db(self, tmp_path_factory):
        import contextlib
        import io

        db = str(tmp_path_factory.mktemp("obs") / "crawl.sqlite")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["crawl", "--web", "tranco", "--sites", "8",
                         "--workers", "2", "--db", db, "--journal",
                         "--profile", "--crash-probability", "0",
                         "--json"])
        assert code == 0
        out = json.loads(buffer.getvalue())
        assert out["journal"] == db + ".journal"
        assert out["hot_scripts"], "profiled crawl surfaced no scripts"
        return db

    def test_crawl_journal_needs_durable_db(self, capsys):
        code = main(["crawl", "--sites", "3", "--journal"])
        captured = capsys.readouterr()
        assert code == 2
        assert "journal" in captured.err

    def test_stats_autodetects_journal(self, journalled_db, capsys):
        code, out = run_cli(capsys, ["stats", "--db", journalled_db,
                                     "--json"])
        assert code == 0
        assert out["schema_version"] == 3
        assert out["journal"]["directory"] == journalled_db + ".journal"
        assert out["journal"]["events"] > 0
        journal_checks = [c for c in out["reconciliation"]
                          if c["check"].startswith("journal")]
        assert journal_checks and all(c["ok"] for c in journal_checks)
        assert out["reconciled"] is True

    def test_stats_output_writes_report_file(self, journalled_db,
                                             tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out = run_cli(capsys, ["stats", "--db", journalled_db,
                                     "--output", str(path), "--json"])
        assert code == 0
        assert json.loads(path.read_text()) == out

    def test_trace_exports_chrome_trace(self, journalled_db, tmp_path,
                                        capsys):
        path = tmp_path / "trace.json"
        code = main(["trace", journalled_db, "--output", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "trace events" in captured.out
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]
        assert {e["ph"] for e in trace["traceEvents"]} <= {"M", "X", "i"}
        assert all({"ph", "pid", "tid", "name"} <= set(e)
                   for e in trace["traceEvents"])

    def test_trace_accepts_journal_directory(self, journalled_db,
                                             capsys):
        code = main(["trace", journalled_db + ".journal"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["traceEvents"]

    def test_trace_rejects_missing_source(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no crawl database" in captured.err

    def test_profile_ranks_scripts(self, journalled_db, capsys):
        code, out = run_cli(capsys, ["profile", journalled_db, "--json"])
        assert code == 0
        ops = [row["ops"] for row in out["scripts"]]
        assert ops == sorted(ops, reverse=True) and ops
        assert all(len(row["script_hash"]) == 64
                   for row in out["scripts"])
        assert out["functions"]

    def test_profile_errors_without_journal(self, tmp_path, capsys):
        code = main(["profile", str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no crawl database" in captured.err

    def test_profile_errors_on_db_without_journal(self, tmp_path,
                                                  capsys):
        db = str(tmp_path / "plain.db")
        assert main(["crawl", "--sites", "2", "--workers", "1",
                     "--db", db, "--json"]) == 0
        capsys.readouterr()
        code = main(["profile", db])
        captured = capsys.readouterr()
        assert code == 2
        assert "no journal sidecar" in captured.err

    def test_tail_renders_events(self, journalled_db, capsys):
        code = main(["tail", journalled_db, "--max-events", "5",
                     "--type", "visit_complete"])
        captured = capsys.readouterr()
        assert code == 0
        lines = [line for line in captured.out.splitlines() if line]
        assert 0 < len(lines) <= 5
        assert all("visit_complete" in line for line in lines)


class TestServeCommand:
    @pytest.fixture(scope="class")
    def crawl_db(self, tmp_path_factory):
        import contextlib
        import io

        db = str(tmp_path_factory.mktemp("serve") / "crawl.sqlite")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["crawl", "--sites", "10", "--workers", "2",
                         "--db", db, "--crash-probability", "0",
                         "--json"]) == 0
        return db

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "x.db"])
        assert args.port == 0 and args.host == "127.0.0.1"
        assert args.cache_capacity == 512 and args.cache_ttl == 30.0
        assert args.extra == []

    def test_rejects_more_than_one_database(self, crawl_db, capsys):
        code = main(["serve", crawl_db, crawl_db, crawl_db])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.strip() == \
            "error: repro serve takes one crawl database, got 3"

    def test_serve_rejects_missing_db(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "nope.db")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no crawl database" in captured.err

    def test_build_needs_db_argument(self, capsys):
        code = main(["serve", "build"])
        captured = capsys.readouterr()
        assert code == 2
        assert "needs exactly one database path" in captured.err

    def test_rejects_second_database_before_opening_it(self, crawl_db,
                                                      capsys):
        code = main(["serve", crawl_db, "whatever"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1
        assert "takes one crawl database, got 2" in captured.err

    def test_build_then_verify_roundtrip(self, crawl_db, capsys):
        code, out = run_cli(capsys, ["serve", "build", crawl_db])
        assert code == 0
        assert out["generation"] > 0
        assert out["sites"] > 0
        assert out["schema_version"] >= 1

        code, out = run_cli(capsys, ["serve", "verify", crawl_db])
        assert code == 0
        assert out["ok"] is True
        assert out["state"] == "fresh"
        assert out["mismatches"] == []

    def test_verify_flags_tampered_rollups(self, crawl_db, tmp_path,
                                           capsys):
        import shutil
        import sqlite3

        connection = sqlite3.connect(crawl_db)
        connection.execute("PRAGMA wal_checkpoint(FULL)")
        connection.close()
        copy = str(tmp_path / "tampered.sqlite")
        shutil.copy(crawl_db, copy)
        connection = sqlite3.connect(copy)
        connection.execute(
            "UPDATE rollups_totals SET value = value + 1 "
            "WHERE name = 'site_visits'")
        connection.commit()
        connection.close()

        code, out = run_cli(capsys, ["serve", "verify", copy])
        assert code == 1
        assert out["ok"] is False
        assert any(m["section"] == "totals" for m in out["mismatches"])

    def test_serve_port_zero_end_to_end(self, crawl_db):
        import os
        import signal
        import subprocess
        import sys

        import repro
        from repro.serve import json_get

        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", crawl_db,
             "--port", "0"], env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            assert " at http://127.0.0.1:" in line
            base = line.split(" at ")[-1]
            status, payload = json_get(base + "/healthz")
            assert status == 200 and payload["rollups"] == "fresh"
            status, payload = json_get(base + "/aggregates/totals")
            assert status == 200
            assert payload["totals"]["site_visits"] > 0
            status, payload = json_get(base + "/nope")
            assert status == 404
        finally:
            proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0


class TestHelpSnapshot:
    """The CLI surface is a contract; pin its --help text."""

    def test_help_matches_golden(self, monkeypatch):
        import os
        import pathlib

        monkeypatch.setenv("COLUMNS", "80")
        text = build_parser().format_help()
        # Python <3.10 renders the section as "optional arguments:".
        text = text.replace("optional arguments:", "options:")
        golden = pathlib.Path(__file__).parent / "golden" \
            / "cli_help.txt"
        if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
            golden.write_text(text, encoding="utf-8")
            pytest.skip("golden file regenerated")
        assert golden.is_file(), \
            "missing golden file; regenerate with REPRO_UPDATE_GOLDEN=1"
        assert text == golden.read_text(encoding="utf-8")
