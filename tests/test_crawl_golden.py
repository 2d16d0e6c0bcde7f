"""Crawl-table golden: the crawl database's rows, pinned across commits.

The CI equivalence job compares crawl modes within one commit; this
pins what they all must equal. Three seeded crawls are run and every
crawl table and every ``rollups_*`` table (except the volatile
``telemetry`` and ``rollups_meta``) is hashed in primary-key order:

* ``lab_faults`` — an inline lab crawl with Bernoulli crashes, a stage
  deadline with a ``hang`` rule, a ``storage_busy`` rule and
  ``quarantine_after``, so crash rows, a watchdog-aborted visit, a
  ``failed_visits`` row and a ``quarantined_sites`` row all occur;
* ``lab_threads`` — the same sites at crash 0 on 2 worker threads;
* ``tranco_js`` — a small JS-instrumented crawl of the synthetic web
  that saves script content.

One value is left out: the ``_fp_uid`` cookie the synthetic web's
analytics beacon sets embeds ``id()`` of its server object
(``repro.web.servers``), so it differs from run to run; its rows are
pinned with the value blanked.

Regenerate (only for a deliberate change to what a crawl records) with
``REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest
tests/test_crawl_golden.py -q``.
"""

import hashlib
import json
import os
import pathlib
import sqlite3

import pytest

from repro.faults import FaultPlan, FaultRule
from repro.obs.runner import run_telemetry_crawl

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "crawl_tables.json")
VOLATILE = ("telemetry", "rollups_meta", "sqlite_sequence")
LAB_SITES = 24
HUNG = "site-00005"
BUSY = "site-00011"


def _lab_faults() -> dict:
    plan = FaultPlan(seed=3)
    plan.add_rule(FaultRule(fault="hang", point="visit.page_load",
                            site=HUNG, seconds=30.0))
    plan.add_rule(FaultRule(fault="storage_busy",
                            point="storage.begin_visit", site=BUSY))
    return dict(site_count=LAB_SITES, seed=5, web="lab", browsers=1,
                workers=1, crash_probability=0.2, stage_deadline=10.0,
                fault_plan=plan, quarantine_after=2)


CRAWLS = {
    "lab_faults": _lab_faults,
    "lab_threads": lambda: dict(site_count=LAB_SITES, seed=5, web="lab",
                                browsers=2, workers=2,
                                crash_probability=0.0),
    "tranco_js": lambda: dict(site_count=4, seed=3, web="tranco",
                              browsers=1, workers=1, js_instrument=True,
                              crash_probability=0.0),
}


def _blank_run_local(row: tuple) -> tuple:
    # (id, visit_id, browser_id, record_type, change_cause, host,
    #  name, value, ...): the beacon's uid varies per run.
    return row[:7] + ("",) + row[8:] if row[6] == "_fp_uid" else row


def table_digests(db_path: str) -> dict:
    """``table -> {"rows": n, "sha256": digest}``, rows in primary-key
    order (rowid order for tables without a declared key)."""
    conn = sqlite3.connect(db_path)
    try:
        out = {}
        for (table,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "ORDER BY name"):
            if table in VOLATILE:
                continue
            keys = [col[1] for col in sorted(
                (col for col in conn.execute(
                    f"PRAGMA table_info({table})") if col[5]),
                key=lambda col: col[5])]
            order = ", ".join(keys) if keys else "rowid"
            rows = conn.execute(
                f"SELECT * FROM {table} ORDER BY {order}").fetchall()
            if table == "javascript_cookies":
                rows = [_blank_run_local(row) for row in rows]
            digest = hashlib.sha256(
                json.dumps(rows, default=repr).encode()).hexdigest()
            out[table] = {"rows": len(rows), "sha256": digest}
        return out
    finally:
        conn.close()


@pytest.fixture(scope="module")
def crawl_tables(tmp_path_factory):
    out = {}
    for name, make_kwargs in CRAWLS.items():
        db = str(tmp_path_factory.mktemp(name) / "crawl.sqlite")
        result = run_telemetry_crawl(database_path=db,
                                     queue_path=db + ".queue",
                                     **make_kwargs())
        result.close()
        out[name] = table_digests(db)
    return out


def test_faulty_crawl_covers_every_ledger(crawl_tables):
    """The golden's fault crawl really exercises what it pins."""
    tables = crawl_tables["lab_faults"]
    for table in ("crash_history", "failed_visits", "quarantined_sites",
                  "rollups_drop_reasons"):
        assert tables[table]["rows"] > 0, table
    # crash, restart and watchdog_abort (the aborted visit)
    assert tables["rollups_crashes"]["rows"] == 3
    assert crawl_tables["tranco_js"]["content"]["rows"] > 0
    assert crawl_tables["tranco_js"]["javascript"]["rows"] > 0


def test_matches_golden(crawl_tables):
    payload = json.dumps(crawl_tables, indent=1, sort_keys=True) + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(payload)
        pytest.skip("crawl-table golden regenerated")
    if not GOLDEN_PATH.exists():
        pytest.fail(
            "missing crawl-table golden; regenerate with "
            "REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src "
            "python -m pytest tests/test_crawl_golden.py -q")
    assert json.loads(payload) == json.loads(GOLDEN_PATH.read_text())
