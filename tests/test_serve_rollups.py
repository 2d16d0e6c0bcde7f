"""Unit tests for the incremental rollup maintainer.

The equivalence harness (``test_serve_equivalence.py``) pins whole
crawls; these tests pin the maintainer's lifecycle edges one at a
time: disabled maintenance must *stale-mark* rather than drift, schema
bumps must rebuild, the open-time consistency probe must catch rollups
that lost a commit, and each retraction hook must decrement exactly
the delta its visit contributed.
"""

import os
import sqlite3

import pytest

from repro.openwpm.storage import StorageController, VisitRecorder
from repro.serve import (
    ROLLUP_SCHEMA_VERSION,
    build,
    generation,
    rollups_state,
    verify,
)

SITE = "https://lab.test/site-00000"


def visit(storage, site=SITE, js=(), cookies=0, requests=0):
    """One visit recorded by *storage*: a controller, whose
    ``end_visit`` lands it, or a bare recorder."""
    recorder = getattr(storage, "recorder", storage)
    storage.begin_visit(site)
    for symbol in js:
        recorder.record_javascript(site, site + "/app.js", symbol,
                                   "get", "")
    for i in range(cookies):
        recorder.record_cookie("explicit", "tracker.test", f"c{i}", "v",
                               "/", False, False, None, site, True)
    for i in range(requests):
        recorder.record_http_request(site + f"/r{i}", site, site, "GET",
                                     "script", True)
    storage.end_visit()


def site_counter(storage, column, site=SITE):
    rows = storage.query(
        f"SELECT {column} AS v FROM rollups_sites "  # noqa: S608
        "WHERE site_url = ?", (site,))
    return int(rows[0]["v"]) if rows else 0


class TestLifecycle:
    def test_virgin_database_starts_fresh_at_generation_zero(self):
        storage = StorageController(":memory:")
        assert storage.rollups.is_fresh()
        assert generation(storage.connection) == 0
        storage.close()

    def test_disabled_maintenance_marks_existing_rollups_stale(
            self, tmp_path, monkeypatch):
        db_path = str(tmp_path / "crawl.db")
        storage = StorageController(db_path)
        visit(storage, js=["window.fetch"])
        storage.close()

        monkeypatch.setenv("REPRO_ROLLUPS", "off")
        storage = StorageController(db_path)
        assert not storage.rollups.enabled
        # The first raw mutation invalidates the now-unmaintained
        # rollups; a served answer must go missing, never drift.
        visit(storage, site=SITE + "x")
        assert rollups_state(storage.connection) == "stale"
        report = verify(storage.connection)
        assert report["ok"] is False or report["state"] == "stale"
        # Backfill repairs it.
        build(storage.connection)
        assert verify(storage.connection)["ok"]
        storage.close()

    def test_rolled_back_envelope_keeps_the_stale_mark(
            self, tmp_path, monkeypatch):
        """With maintenance off, an envelope that fails after its first
        visit rolls back the stale mark it made; the next write must
        make it again, or unmaintained rollups would read fresh."""
        db_path = str(tmp_path / "crawl.db")
        storage = StorageController(db_path)
        visit(storage)
        storage.close()

        monkeypatch.setenv("REPRO_ROLLUPS", "off")
        storage = StorageController(db_path)
        slot = VisitRecorder(0)
        visit(slot, site=SITE + "a")
        visit(slot, site=SITE + "b")
        broken = slot.take_envelope()
        broken["visits"][1]["tables"]["no_such_table"] = [(2, 0)]
        with pytest.raises(ValueError):
            storage.record_envelope(**broken)
        assert rollups_state(storage.connection) == "fresh"
        visit(slot, site=SITE + "c")
        storage.record_envelope(**slot.take_envelope())
        assert rollups_state(storage.connection) == "stale"
        storage.close()

    def test_env_var_disables_maintenance(self, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_ROLLUPS", "off")
        storage = StorageController(str(tmp_path / "env.db"))
        assert not storage.rollups.enabled
        storage.close()

    def test_schema_version_bump_rebuilds_as_stale(self, tmp_path):
        db_path = str(tmp_path / "crawl.db")
        storage = StorageController(db_path)
        visit(storage)
        storage.close()

        connection = sqlite3.connect(db_path)
        connection.execute(
            "UPDATE rollups_meta SET value = ? "
            "WHERE key = 'schema_version'",
            (str(ROLLUP_SCHEMA_VERSION + 1),))
        connection.commit()
        connection.close()

        # Reopen: the version mismatch drops the tables; a database
        # with existing crawl data comes back stale (backfill is the
        # caller's explicit decision), and build() repairs it.
        storage = StorageController(db_path)
        assert rollups_state(storage.connection) == "stale"
        build(storage.connection)
        assert storage.rollups.is_fresh()
        assert verify(storage.connection)["ok"]
        storage.close()

    def test_consistency_probe_catches_lost_commits(self, tmp_path):
        db_path = str(tmp_path / "crawl.db")
        storage = StorageController(db_path)
        visit(storage)
        storage.close()

        # Simulate a raw-table write that never reached the rollups
        # (a crash between commits, or an out-of-band editor).
        connection = sqlite3.connect(db_path)
        connection.execute(
            "INSERT INTO site_visits (visit_id, browser_id, site_url, "
            "run_label) VALUES (999, 0, 'https://rogue.test/', '')")
        connection.commit()
        connection.close()

        storage = StorageController(db_path)
        assert rollups_state(storage.connection) == "stale"
        assert not storage.rollups.is_fresh()
        storage.close()


class TestIncrementalAccounting:
    def test_webdriver_probe_predicate_is_case_sensitive(self):
        storage = StorageController(":memory:")
        visit(storage, js=["window.navigator.webdriver",
                           "window.Navigator.WebDriver",
                           "screen.width"])
        assert site_counter(storage, "webdriver_probes") == 1
        assert site_counter(storage, "js_rows") == 3
        assert verify(storage.connection)["ok"]
        storage.close()

    def test_recorded_envelope_folds_like_a_live_visit(self):
        slot = VisitRecorder(0)
        visit(slot, js=["navigator.webdriver"], cookies=2, requests=3)
        slot.record_crash(SITE, "crash")
        slot.record_failed_visit(SITE, 3, "crash_loop")
        slot.record_quarantine(SITE, 3, "crash_loop")
        slot.record_quarantine(SITE, 4, "crash_loop")  # one row per site
        live = StorageController(":memory:")
        visit(live, js=["navigator.webdriver"], cookies=2, requests=3)
        live.recorder.record_crash(SITE, "crash")
        live.recorder.record_failed_visit(SITE, 3, "crash_loop")
        live.recorder.record_quarantine(SITE, 3, "crash_loop")
        live.record_envelope(**live.recorder.take_envelope())

        storage = StorageController(":memory:")
        assert storage.record_envelope(**slot.take_envelope()) == 1
        assert verify(storage.connection)["ok"]
        for column in ("visits", "js_rows", "failed", "quarantined",
                       "crashes", "webdriver_probes"):
            assert site_counter(storage, column) \
                == site_counter(live, column), column
        for store in (live, storage):
            store.close()

    def test_content_rows_booked_once_despite_dedup(self):
        storage = StorageController(":memory:")
        storage.begin_visit(SITE)
        storage.recorder.record_content("var x = 1;", SITE + "/a.js",
                                        "text/javascript")
        storage.end_visit()
        storage.begin_visit(SITE)
        storage.recorder.record_content("var x = 1;", SITE + "/b.js",
                                        "text/javascript")
        storage.end_visit()
        totals = {row["name"]: row["value"] for row in storage.query(
            "SELECT name, value FROM rollups_totals")}
        # OR IGNORE deduped the second copy; the rollup must count
        # rows that actually landed, not insert attempts.
        assert totals["content"] == 1
        assert verify(storage.connection)["ok"]
        storage.close()

    def test_aborted_visit_contributes_nothing_but_content(self):
        storage = StorageController(":memory:")
        storage.begin_visit(SITE)
        storage.recorder.record_javascript(SITE, SITE + "/app.js",
                                           "navigator.webdriver", "get",
                                           "")
        storage.recorder.record_content("payload();", SITE + "/app.js",
                                        "text/javascript")
        storage.recorder.abort_visit()
        storage.record_envelope(**storage.recorder.take_envelope())
        totals = {row["name"]: row["value"] for row in storage.query(
            "SELECT name, value FROM rollups_totals")}
        assert totals.get("javascript", 0) == 0
        assert totals.get("site_visits", 0) == 0
        assert totals["content"] == 1  # content survives aborts
        assert verify(storage.connection)["ok"]
        storage.close()
