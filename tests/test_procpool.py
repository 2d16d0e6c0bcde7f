"""Process-pool crawl tests (``--worker-procs``).

The acceptance criteria for the multi-process scheduler:

* an N-process crawl writes **byte-identical** verdict/visit tables to
  the 1-worker inline path (only the ``telemetry`` table and SQLite's
  ``sqlite_sequence`` bookkeeping may differ);
* the supervision ladder — heartbeat miss → SIGKILL → respawn with
  backoff → pool shrink → crawl abort — recovers from every ``proc.*``
  fault without losing or duplicating a site (exactly-once);
* an interrupted or aborted process crawl resumes from the same queue
  file and finishes the remainder;
* concurrent worker *processes* never double-claim a job and never
  share a journal epoch.

These tests spawn real subprocesses and run on wall-clock time, so
site counts are kept small.
"""

import functools
import multiprocessing
import os
import sqlite3
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, FaultRule
from repro.obs.clock import WallClock
from repro.obs.journal import Journal, journal_files, merge_journal
from repro.obs.runner import run_telemetry_crawl
from repro.obs.stats import build_crawl_report, render_crawl_report
from repro.obs.telemetry import Telemetry
from repro.sched import JobQueue, diff_snapshots
from repro.openwpm.storage import StorageController
from repro.sched.settle import _Finalizer
from tests.test_scan_settle import (
    assert_same_scan,
    resume_after_crash_window,
    scan_fingerprint,
    sidecar_evidence,
)
from tests.test_stage_settle import (
    ProcessDied,
    assert_each_site_ends_once,
    die_writing_lease_expiry,
)

#: Tables whose bytes legitimately differ between runs: telemetry row
#: counts depend on scheduling, and sqlite_sequence tracks the
#: telemetry table's AUTOINCREMENT high-water mark.
VOLATILE_TABLES = ("telemetry", "sqlite_sequence")


def dump_tables(db_path):
    """Every row of every table, fully ordered, minus volatile ones."""
    conn = sqlite3.connect(db_path)
    try:
        tables = [row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "ORDER BY name")]
        out = {}
        for table in tables:
            if table in VOLATILE_TABLES:
                continue
            cols = [col[1] for col in conn.execute(
                f"PRAGMA table_info({table})")]
            out[table] = conn.execute(
                f"SELECT * FROM {table} ORDER BY "
                + ", ".join(cols)).fetchall()
        return out
    finally:
        conn.close()


def crawl(tmp_path, name, sites=10, **kwargs):
    """One telemetered lab crawl into ``tmp_path/<name>.db``."""
    db_path = str(tmp_path / f"{name}.db")
    result = run_telemetry_crawl(
        site_count=sites, seed=7, database_path=db_path,
        crash_probability=0.0, browsers=1, web="lab",
        queue_path=str(tmp_path / f"{name}.queue"), **kwargs)
    report = result.report
    result.close()
    return db_path, report


# ---------------------------------------------------------------------------
# Determinism: N processes == 1 inline worker, byte for byte
# ---------------------------------------------------------------------------
class TestProcEquivalence:
    @pytest.fixture(scope="class")
    def inline_baseline(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inline")
        db_path, report = crawl(tmp, "inline", workers=1)
        assert report.drained
        return dump_tables(db_path)

    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_proc_crawl_byte_identical_to_inline(self, procs, tmp_path,
                                                 inline_baseline):
        db_path, report = crawl(tmp_path, f"proc{procs}",
                                worker_procs=procs)
        assert report.drained
        assert report.completed == 10
        assert not report.interrupted
        tables = dump_tables(db_path)
        assert set(tables) == set(inline_baseline)
        for table in tables:
            assert tables[table] == inline_baseline[table], table

    def test_memory_queue_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="file-backed"):
            run_telemetry_crawl(
                site_count=2, database_path=":memory:", browsers=1,
                crash_probability=0.0, web="lab", worker_procs=2)

    def test_worker_procs_excludes_thread_workers(self, tmp_path):
        with pytest.raises(ValueError, match="worker"):
            run_telemetry_crawl(
                site_count=2, database_path=":memory:", browsers=1,
                crash_probability=0.0, web="lab", worker_procs=2,
                workers=2, queue_path=str(tmp_path / "x.queue"))


# ---------------------------------------------------------------------------
# Per-site identity: tranco rows do not depend on the schedule
# ---------------------------------------------------------------------------
TRANCO_SITES = 12


def tranco_crawl(tmp_path, name, **kwargs):
    """One JS-instrumented tranco crawl into ``tmp_path/<name>.db``."""
    db_path = str(tmp_path / f"{name}.db")
    result = run_telemetry_crawl(
        site_count=TRANCO_SITES, seed=7, database_path=db_path,
        crash_probability=0.0, web="tranco", js_instrument=True,
        queue_path=str(tmp_path / f"{name}.queue"), **kwargs)
    urls, report = result.urls, result.report
    result.close()
    return db_path, urls, report


def rows_by_site(conn):
    """Every row keyed by what it is about, not by when it was written.

    A visit table's rows go under their visit's site, in recording
    order, without the ``id``/``visit_id`` a crawl assigns in visit
    order; ``content`` drops its ``url`` (the first page seen serving
    the body). Everything else but the volatile tables (and
    ``rollups_meta``'s fold generation) is compared whole.
    """
    sites = {row[0]: row[1] for row in conn.execute(
        "SELECT visit_id, site_url FROM site_visits")}
    out = {"site_visits": sorted(sites.values())}
    for (table,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name NOT IN ('site_visits', 'telemetry', "
            "'sqlite_sequence', 'rollups_meta') ORDER BY name"):
        cols = [col[1] for col in conn.execute(
            f"PRAGMA table_info({table})")
            if col[1] not in ("id", "url" if table == "content" else "")]
        if "visit_id" not in cols:
            out[table] = sorted(tuple(row) for row in conn.execute(
                f"SELECT {', '.join(cols)} FROM {table}"))
            continue
        cols.remove("visit_id")
        per_site = {}
        for visit_id, *row in conn.execute(
                f"SELECT visit_id, {', '.join(cols)} FROM {table} "
                "ORDER BY id"):
            per_site.setdefault(sites[visit_id], []).append(tuple(row))
        out[table] = per_site
    return out


class TestTrancoEquivalence:
    """Every crawl attempt starts its site on a per-site identity
    (``Browser.begin_site``), so a JS-instrumented tranco crawl writes
    the same tables at any worker count, in threads or processes, and
    each site's rows whatever sites were visited before it."""

    @pytest.fixture(scope="class")
    def inline(self, tmp_path_factory):
        db_path, urls, report = tranco_crawl(
            tmp_path_factory.mktemp("tranco"), "inline", browsers=1,
            workers=1)
        assert report.drained and report.completed == TRANCO_SITES
        return db_path, urls

    @pytest.mark.parametrize("mode", [
        dict(browsers=2, workers=2),
        dict(browsers=1, worker_procs=2),
    ], ids=["workers2", "worker_procs2"])
    def test_byte_identical_to_inline(self, mode, tmp_path, inline):
        baseline = dump_tables(inline[0])
        db_path, _, report = tranco_crawl(tmp_path, "mode", **mode)
        assert report.drained
        tables = dump_tables(db_path)
        assert set(tables) == set(baseline)
        for table in tables:
            assert tables[table] == baseline[table], table

    def test_reversed_site_order_gives_every_site_the_same_rows(
            self, tmp_path, inline):
        """Visit and row ids follow the visit order, so the reversed
        crawl's rows are compared site by site."""
        forward, urls = inline
        backward, _, report = tranco_crawl(
            tmp_path, "backward", browsers=1, workers=1,
            urls=list(reversed(urls)))
        assert report.drained
        with sqlite3.connect(forward) as a, sqlite3.connect(backward) as b:
            assert rows_by_site(b) == rows_by_site(a)

    def test_records_and_replays_on_processes_as_inline(self, tmp_path):
        from repro.bundles import Bundle, diff_bundles

        inline_rec = str(tmp_path / "inline-rec")
        proc_rec = str(tmp_path / "proc-rec")
        live, _, _ = tranco_crawl(tmp_path, "live", browsers=2, workers=2,
                                  record_dir=inline_rec)
        tranco_crawl(tmp_path, "proc", browsers=1, worker_procs=2,
                     record_dir=proc_rec)
        original, recorded = Bundle(inline_rec), Bundle(proc_rec)
        try:
            assert diff_bundles(original, recorded)["zero_diffs"]
        finally:
            original.close()
            recorded.close()
        telemetry = Telemetry()
        replayed, _, report = tranco_crawl(
            tmp_path, "replay", browsers=1, worker_procs=2,
            replay_dir=inline_rec, telemetry=telemetry)
        assert report.drained and report.completed == TRANCO_SITES
        assert telemetry.metrics.counter_value(
            "bundle_replay_misses") == 0
        assert dump_tables(replayed) == dump_tables(live)


@functools.lru_cache(maxsize=1)
def tranco_urls():
    from repro.web import build_world

    return tuple(build_world(site_count=TRANCO_SITES, seed=7)
                 .front_urls(TRANCO_SITES))


def site_visit_rows(urls, site):
    """*site*'s rows from an inline JS tranco crawl of *urls* on one
    browser slot."""
    result = run_telemetry_crawl(
        site_count=TRANCO_SITES, seed=7, crash_probability=0.0,
        web="tranco", js_instrument=True, browsers=1, urls=list(urls))
    try:
        rows = rows_by_site(result.storage.connection)
    finally:
        result.close()
    return {table: per_site.get(site) for table, per_site in rows.items()
            if isinstance(per_site, dict)}


@settings(max_examples=8, deadline=None, derandomize=True)
@given(pair=st.lists(st.integers(0, TRANCO_SITES - 1), min_size=2,
                     max_size=2, unique=True))
def test_a_site_rows_do_not_depend_on_the_site_before(pair):
    """B visited right after A on the same slot records what B
    visited on a fresh browser records."""
    first, second = (tranco_urls()[index] for index in pair)
    after = site_visit_rows([first, second], second)
    assert after["javascript_cookies"] or after["http_requests"]
    assert after == site_visit_rows([second], second)


class TestScanProcEquivalence:
    def test_two_procs_match_inline_scan(self, tmp_path):
        from repro.core.scan import ScanPipeline
        from repro.web import build_world

        world = build_world(site_count=8, seed=5)
        inline_queue = str(tmp_path / "inline.queue")
        proc_queue = str(tmp_path / "proc.queue")
        inline = ScanPipeline(world, client_id="proc-test").run(
            visit_subpages=True, workers=1, queue_path=inline_queue)
        procs = ScanPipeline(world, client_id="proc-test").run(
            visit_subpages=True, worker_procs=2, world_seed=5,
            queue_path=proc_queue)
        try:
            assert_same_scan(scan_fingerprint(procs, proc_queue),
                             scan_fingerprint(inline, inline_queue))
        finally:
            inline.corpus.close()
            procs.corpus.close()

    def test_crash_after_rows_landed_resumes_to_the_clean_result(
            self, tmp_path, monkeypatch):
        """The process-pool twin of the scan crash window in
        ``test_scan_settle.py``: the coordinator dies saving a site's
        evidence after its broker landed the site's corpus rows."""
        from repro.core.scan import ScanPipeline
        from repro.web import build_world

        world = build_world(site_count=4, seed=5)
        clean_queue = str(tmp_path / "clean.queue")
        clean = ScanPipeline(world, client_id="crash-window").run(
            visit_subpages=True, queue_path=clean_queue)
        resumed, queue_path = resume_after_crash_window(
            world, tmp_path, monkeypatch, worker_procs=1, world_seed=5)
        try:
            assert resumed.corpus.occurrence_rows() \
                == clean.corpus.occurrence_rows()
            assert sidecar_evidence(queue_path) \
                == sidecar_evidence(clean_queue)
            assert resumed.table5() == clean.table5()
        finally:
            clean.corpus.close()
            resumed.corpus.close()

    def test_proc_scan_records_queue_histograms(self, tmp_path):
        from repro.core.scan import ScanPipeline
        from repro.web import build_world

        telemetry = Telemetry()
        dataset = ScanPipeline(
            build_world(site_count=4, seed=5), client_id="proc-test",
            telemetry=telemetry).run(
            visit_subpages=False, worker_procs=2, world_seed=5,
            queue_path=str(tmp_path / "hist.queue"))
        dataset.corpus.close()
        metrics = telemetry.metrics
        for name in ("queue_wait_seconds", "lease_duration_seconds"):
            assert metrics.histogram(name).count == 4, name


# ---------------------------------------------------------------------------
# Record and replay: a process pool archives and replays as inline does
# ---------------------------------------------------------------------------
class TestProcBundles:
    """Record and replay across pool modes on the lab web (the
    tranco web's are in :class:`TestTrancoEquivalence`)."""

    def test_proc_crawl_records_and_replays_as_inline(self, tmp_path):
        from repro.bundles import Bundle, diff_bundles

        inline_rec = str(tmp_path / "inline-rec")
        proc_rec = str(tmp_path / "proc-rec")
        crawl(tmp_path, "inline", workers=1, record_dir=inline_rec)
        _, report = crawl(tmp_path, "proc", worker_procs=2,
                          record_dir=proc_rec)
        assert report.drained
        original, recorded = Bundle(inline_rec), Bundle(proc_rec)
        try:
            assert diff_bundles(original, recorded)["zero_diffs"]
        finally:
            original.close()
            recorded.close()

        inline_db, _ = crawl(tmp_path, "inline-replay", workers=1,
                             replay_dir=inline_rec)
        telemetry = Telemetry()
        proc_db, report = crawl(tmp_path, "proc-replay", worker_procs=2,
                                replay_dir=inline_rec,
                                telemetry=telemetry)
        assert report.drained and report.completed == 10
        assert telemetry.metrics.counter_value(
            "bundle_replay_misses") == 0
        assert dump_tables(proc_db) == dump_tables(inline_db)

    def test_proc_scan_records_and_replays_as_inline(self, tmp_path):
        import json

        from repro.bundles import (
            Bundle,
            BundleWriter,
            ReplayWeb,
            diff_bundles,
        )
        from repro.cli import _scan_output
        from repro.core.scan import ScanPipeline
        from repro.web import build_world

        def scan(name, web, record=None, telemetry=None, **mode):
            recorder = None if record is None else BundleWriter(
                record, kind="scan",
                sites=[config.domain for config in web.configs])
            dataset = ScanPipeline(web, telemetry=telemetry,
                                   recorder=recorder).run(
                visit_subpages=True, world_seed=5,
                queue_path=str(tmp_path / f"{name}.queue"), **mode)
            if recorder is not None:
                recorder.finalize(complete=True)
            output = _scan_output(dataset)
            output.pop("corpus")
            dataset.corpus.close()
            return json.dumps(output, sort_keys=True)

        world = build_world(site_count=6, seed=5)
        inline_rec = str(tmp_path / "inline-rec")
        proc_rec = str(tmp_path / "proc-rec")
        live = scan("inline", world, record=inline_rec)
        assert scan("proc", world, record=proc_rec, worker_procs=2) \
            == live
        original, recorded = Bundle(inline_rec), Bundle(proc_rec)
        try:
            assert diff_bundles(original, recorded)["zero_diffs"]
            # Process scans archive their analysis rows too.
            assert recorded.store.export_analysis_cache() \
                == original.store.export_analysis_cache()
        finally:
            original.close()
            recorded.close()

        bundle = Bundle(inline_rec)
        try:
            inline_replay = scan("inline-replay", ReplayWeb(bundle))
            telemetry = Telemetry()
            proc_replay = scan("proc-replay", ReplayWeb(bundle),
                               telemetry=telemetry, worker_procs=2)
        finally:
            bundle.close()
        assert proc_replay == inline_replay == live
        assert telemetry.metrics.counter_value(
            "bundle_replay_misses") == 0


# ---------------------------------------------------------------------------
# Fault injection at the proc.* choke points
# ---------------------------------------------------------------------------
class TestProcFaults:
    def test_worker_sigkill_mid_visit_exactly_once(self, tmp_path):
        """SIGKILL mid-visit: the lease is reclaimed, the site re-runs
        on the respawned worker, and lands in the database exactly
        once. One worker proc keeps the death count deterministic —
        rule fire budgets are per process lineage, so with N initial
        workers a ``times=1`` rule would fire once in each."""
        plan = FaultPlan([FaultRule(fault="worker_sigkill",
                                    point="proc.mid_visit", times=1)])
        telemetry = Telemetry()
        db_path, report = crawl(tmp_path, "sigkill", sites=8,
                                worker_procs=1, fault_plan=plan,
                                telemetry=telemetry,
                                respawn_backoff=0.05)
        assert report.drained
        assert report.completed == 8
        assert report.worker_deaths == 1
        metrics = telemetry.metrics
        assert metrics.counter_value("proc_worker_deaths") == 1
        assert metrics.counter_value("proc_workers_respawned") == 1
        assert metrics.counter_value("proc_workers_spawned") == 2
        conn = sqlite3.connect(db_path)
        rows = conn.execute(
            "SELECT COUNT(*), COUNT(DISTINCT site_url) "
            "FROM site_visits").fetchone()
        conn.close()
        assert rows == (8, 8)

    def test_broker_pipe_error_recovers(self, tmp_path):
        """A broken envelope pipe kills the worker; the job's lease is
        released and the re-run ships the records."""
        plan = FaultPlan([FaultRule(fault="broker_pipe_error",
                                    point="proc.envelope", times=1)])
        db_path, report = crawl(tmp_path, "pipe", sites=6,
                                worker_procs=1, fault_plan=plan,
                                respawn_backoff=0.05)
        assert report.drained
        assert report.completed == 6
        assert report.worker_deaths == 1
        conn = sqlite3.connect(db_path)
        rows = conn.execute(
            "SELECT COUNT(*), COUNT(DISTINCT site_url) "
            "FROM site_visits").fetchone()
        conn.close()
        assert rows == (6, 6)

    def test_hang_triggers_heartbeat_sigkill_ladder(self, tmp_path):
        """A real-time hang stops the heartbeats; the supervisor
        SIGKILLs the worker at the deadline and the respawn finishes
        the crawl."""
        plan = FaultPlan([FaultRule(fault="hang",
                                    point="proc.mid_visit", times=1,
                                    seconds=60.0)])
        telemetry = Telemetry()
        db_path, report = crawl(tmp_path, "hang", sites=4,
                                worker_procs=1, fault_plan=plan,
                                telemetry=telemetry,
                                heartbeat_deadline=3.0,
                                respawn_backoff=0.05)
        assert report.drained
        assert report.completed == 4
        metrics = telemetry.metrics
        assert metrics.counter_value("proc_heartbeats_missed") >= 1
        assert metrics.counter_value("proc_workers_killed") >= 1
        conn = sqlite3.connect(db_path)
        rows = conn.execute(
            "SELECT COUNT(*), COUNT(DISTINCT site_url) "
            "FROM site_visits").fetchone()
        conn.close()
        assert rows == (4, 4)

    def test_crash_writing_a_lease_expiry_row_leaves_the_site_to_resume(
            self, tmp_path, monkeypatch):
        """The process-pool run of the lease-expiry crash in
        ``test_stage_settle.py``: a real-time hang outlives the lease,
        the supervisor's reclaim finds the job out of attempts, and the
        coordinator dies writing its ``failed_visits`` row. The job
        stays leased, and the resume re-runs the site."""
        monkeypatch.setattr(StorageController, "record_envelope",
                            die_writing_lease_expiry(
                                StorageController.record_envelope))
        db_path = str(tmp_path / "died.db")
        queue_path = str(tmp_path / "died.queue")
        plan = FaultPlan([FaultRule(fault="hang", point="proc.mid_visit",
                                    times=1, seconds=3.0)])
        with pytest.raises(ProcessDied):
            run_telemetry_crawl(
                site_count=1, seed=7, database_path=db_path,
                crash_probability=0.0, browsers=1, web="lab",
                queue_path=queue_path, worker_procs=1, max_attempts=1,
                lease_seconds=1.0, fault_plan=plan)
        # The coordinator's daemon workers die with it.
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=10)
        queue = JobQueue(queue_path)
        assert queue.counts()["leased"] == 1
        queue.close()

        result = run_telemetry_crawl(
            site_count=1, seed=7, database_path=db_path,
            crash_probability=0.0, browsers=1, web="lab",
            queue_path=queue_path, worker_procs=1, max_attempts=1,
            resume=True)
        assert result.report.completed == 1
        assert_each_site_ends_once(result.manager, queue_path,
                                   result.urls)
        result.close()

    def test_respawn_failure_shrinks_pool_then_resume_finishes(
            self, tmp_path):
        """Failed respawns walk the crash-loop ladder to a pool shrink
        and crawl abort; a resume over the same queue completes the
        remainder."""
        plan = FaultPlan([
            FaultRule(fault="worker_sigkill", point="proc.claim",
                      times=1),
            FaultRule(fault="respawn_failure", point="proc.respawn",
                      times=10),
        ])
        telemetry = Telemetry()
        db_path, report = crawl(tmp_path, "shrink", sites=4,
                                worker_procs=1, fault_plan=plan,
                                telemetry=telemetry, respawn_limit=1,
                                respawn_backoff=0.05)
        assert report.interrupted
        assert report.completed < 4
        assert telemetry.metrics.counter_value("proc_pool_shrinks") == 1

        result = run_telemetry_crawl(
            site_count=4, seed=7, database_path=db_path,
            crash_probability=0.0, browsers=1, web="lab",
            worker_procs=1,
            queue_path=str(tmp_path / "shrink.queue"), resume=True)
        resumed = result.report
        result.close()
        assert resumed.drained
        assert resumed.counts["completed"] == 4
        conn = sqlite3.connect(db_path)
        rows = conn.execute(
            "SELECT COUNT(*), COUNT(DISTINCT site_url) "
            "FROM site_visits").fetchone()
        conn.close()
        assert rows == (4, 4)


class TestStopResume:
    def test_stop_after_jobs_then_resume(self, tmp_path):
        db_path, report = crawl(tmp_path, "stop", sites=12,
                                worker_procs=2, stop_after_jobs=4)
        assert report.interrupted
        first = report.completed
        assert 0 < first < 12

        result = run_telemetry_crawl(
            site_count=12, seed=7, database_path=db_path,
            crash_probability=0.0, browsers=1, web="lab",
            worker_procs=2, queue_path=str(tmp_path / "stop.queue"),
            resume=True)
        resumed = result.report
        result.close()
        assert resumed.drained
        assert resumed.counts["completed"] == 12
        assert resumed.completed == 12 - first
        conn = sqlite3.connect(db_path)
        rows = conn.execute(
            "SELECT COUNT(*), COUNT(DISTINCT site_url) "
            "FROM site_visits").fetchone()
        conn.close()
        assert rows == (12, 12)


# ---------------------------------------------------------------------------
# repro stats: process-supervision section + journal reconciliation
# ---------------------------------------------------------------------------
class TestStatsSupervisionSection:
    def test_clean_proc_crawl_reconciles_with_journal(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        db_path = str(tmp_path / "stats.db")
        queue_path = str(tmp_path / "stats.queue")
        result = run_telemetry_crawl(
            site_count=6, seed=7, database_path=db_path,
            crash_probability=0.0, browsers=1, web="lab",
            worker_procs=2, queue_path=queue_path,
            journal_dir=journal_dir)
        queue = JobQueue(queue_path)
        try:
            report = build_crawl_report(result.storage, queue=queue,
                                        journal_dir=journal_dir)
        finally:
            queue.close()
            result.close()
        pool = report["process_pool"]
        assert pool is not None
        assert pool["workers_spawned"] == 2
        assert pool["worker_deaths"] == 0
        proc_checks = [c for c in report["reconciliation"]
                       if "proc_" in c["check"]]
        assert proc_checks and all(c["ok"] for c in proc_checks), \
            proc_checks
        assert report["reconciled"], report["reconciliation"]
        text = render_crawl_report(report)
        assert "Process supervision" in text
        assert "workers spawned" in text

    def test_proc_crawl_reports_queue_histograms(self, tmp_path):
        """Process workers record the same queue-wait and lease
        histograms the inline pool does, so `repro stats` shows them."""
        queue_path = str(tmp_path / "hist.queue")
        result = run_telemetry_crawl(
            site_count=6, seed=7, database_path=str(tmp_path / "hist.db"),
            crash_probability=0.0, browsers=1, web="lab",
            worker_procs=2, queue_path=queue_path)
        queue = JobQueue(queue_path)
        try:
            report = build_crawl_report(result.storage, queue=queue)
        finally:
            queue.close()
            result.close()
        for name in ("queue_wait_seconds", "lease_duration_seconds"):
            assert report["scheduler"][name]["count"] == 6, name
        text = render_crawl_report(report)
        assert "queue wait" in text and "lease duration" in text

    def test_section_absent_without_proc_metrics(self):
        result = run_telemetry_crawl(site_count=3, browsers=1,
                                     crash_probability=0.0, web="lab")
        report = build_crawl_report(result.storage)
        result.close()
        assert report["process_pool"] is None
        assert "Process supervision" not in render_crawl_report(report)


# ---------------------------------------------------------------------------
# Queue: atomic cross-connection claims
# ---------------------------------------------------------------------------
class TestAtomicClaim:
    def test_concurrent_connections_never_double_claim(self, tmp_path):
        """The claim must be a conditional UPDATE, not read-then-write:
        four independent connections (stand-ins for worker processes —
        separate sqlite handles, separate in-process locks) racing over
        one queue file must each win disjoint jobs."""
        path = str(tmp_path / "race.queue")
        seedq = JobQueue(path)
        seedq.enqueue([f"https://lab.test/site-{i:05d}"
                       for i in range(60)])
        seedq.close()

        claimed = []
        lock = threading.Lock()

        def contender(owner):
            queue = JobQueue(path)
            try:
                while True:
                    job = queue.claim(owner)
                    if job is None:
                        return
                    with lock:
                        claimed.append(job.job_id)
            finally:
                queue.close()

        threads = [threading.Thread(target=contender, args=(f"w{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == list(range(1, 61))

    def test_claim_increments_attempts_once(self, tmp_path):
        queue = JobQueue(str(tmp_path / "attempts.queue"))
        queue.enqueue(["https://lab.test/site-00000"])
        job = queue.claim("w0")
        assert job.attempts == 1
        assert queue.claim("w1") is None
        queue.close()


# ---------------------------------------------------------------------------
# Journal: cross-process epoch claiming
# ---------------------------------------------------------------------------
def _epoch_claimer(directory, out_queue):
    journal = Journal(directory, WallClock())
    journal.emit("probe", pid=os.getpid())
    journal.close()
    out_queue.put(journal.epoch)


class TestJournalEpochClaim:
    def test_concurrent_processes_claim_distinct_epochs(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        out = ctx.Queue()
        procs = [ctx.Process(target=_epoch_claimer,
                             args=(str(tmp_path), out))
                 for _ in range(4)]
        for proc in procs:
            proc.start()
        epochs = sorted(out.get(timeout=60) for _ in procs)
        for proc in procs:
            proc.join()
        assert epochs == [0, 1, 2, 3]
        events = merge_journal(str(tmp_path))
        assert [e["epoch"] for e in events
                if e.get("type") == "probe"] == [0, 1, 2, 3]

    def test_torn_final_line_is_recovered(self, tmp_path):
        journal = Journal(str(tmp_path), WallClock())
        journal.emit("alpha")
        journal.emit("beta")
        journal.close()
        path = journal_files(str(tmp_path))[0]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "torn-mid-wri')
        events = merge_journal(str(tmp_path))
        assert [e["type"] for e in events] == ["alpha", "beta"]


# ---------------------------------------------------------------------------
# diff_snapshots: the worker→coordinator metric delta protocol
# ---------------------------------------------------------------------------
def counter(name, value, **labels):
    return {"name": name, "kind": "counter", "labels": labels,
            "value": value}


class TestDiffSnapshots:
    def test_counters_subtract(self):
        prev = [counter("visits_completed", 3.0)]
        curr = [counter("visits_completed", 5.0)]
        assert diff_snapshots(prev, curr) \
            == [counter("visits_completed", 2.0)]

    def test_unchanged_counter_omitted(self):
        snap = [counter("visits_completed", 3.0)]
        assert diff_snapshots(snap, list(snap)) == []

    def test_none_prev_is_full_snapshot(self):
        curr = [counter("visits_completed", 4.0)]
        assert diff_snapshots(None, curr) == curr

    def test_labels_distinguish_series(self):
        prev = [counter("records_written", 2.0, instrument="js")]
        curr = [counter("records_written", 2.0, instrument="js"),
                counter("records_written", 7.0, instrument="http")]
        assert diff_snapshots(prev, curr) \
            == [counter("records_written", 7.0, instrument="http")]

    def test_gauges_pass_through_absolute(self):
        prev = [{"name": "depth", "kind": "gauge", "labels": {},
                 "value": 9.0}]
        curr = [{"name": "depth", "kind": "gauge", "labels": {},
                 "value": 4.0}]
        assert diff_snapshots(prev, curr) == curr

    def test_histograms_subtract_counts_sum_and_buckets(self):
        prev = [{"name": "wait", "kind": "histogram", "labels": {},
                 "count": 2, "sum": 1.0, "bucket_counts": [1, 1, 0]}]
        curr = [{"name": "wait", "kind": "histogram", "labels": {},
                 "count": 5, "sum": 4.0, "bucket_counts": [2, 2, 1]}]
        delta = diff_snapshots(prev, curr)
        assert delta == [{"name": "wait", "kind": "histogram",
                          "labels": {}, "count": 3, "sum": 3.0,
                          "bucket_counts": [1, 1, 1]}]

    def test_unchanged_histogram_omitted(self):
        snap = [{"name": "wait", "kind": "histogram", "labels": {},
                 "count": 2, "sum": 1.0, "bucket_counts": [2, 0]}]
        assert diff_snapshots(snap, [dict(snap[0])]) == []


# ---------------------------------------------------------------------------
# _Finalizer: strict job-id ordering of final resolutions
# ---------------------------------------------------------------------------
def make_queue(urls=3):
    queue = JobQueue(":memory:")
    queue.enqueue([f"https://lab.test/site-{i:05d}"
                   for i in range(urls)])
    return queue


class TestFinalizer:
    def test_finals_apply_in_job_id_order(self):
        queue = make_queue()
        finalizer = _Finalizer(queue)
        applied = []

        def apply(job_id):
            def fn():
                applied.append(job_id)
                return True
            return fn

        finalizer.submit(3, "w0", apply(3))
        finalizer.submit(2, "w1", apply(2))
        assert applied == []
        finalizer.submit(1, "w0", apply(1))
        assert applied == [1, 2, 3]
        queue.close()

    def test_voided_final_holds_the_cursor(self):
        queue = make_queue()
        finalizer = _Finalizer(queue)
        applied = []
        finalizer.submit(1, "w0", lambda: False)  # lease lost
        finalizer.submit(2, "w1",
                         lambda: applied.append(2) or True)
        assert applied == []  # job 1 unsettled; 2 must wait
        finalizer.submit(1, "w1",
                         lambda: applied.append(1) or True)
        assert applied == [1, 2]
        queue.close()

    def test_terminal_at_startup_unblocks_cursor(self):
        queue = make_queue()
        job = queue.claim("w0")
        queue.fail(job.job_id, "w0", error="boom", retry=False)
        finalizer = _Finalizer(queue)
        applied = []
        finalizer.submit(2, "w1", lambda: applied.append(2) or True)
        assert applied == [2]
        queue.close()

    def test_mark_terminal_unblocks(self):
        queue = make_queue()
        finalizer = _Finalizer(queue)
        applied = []
        finalizer.submit(2, "w1", lambda: applied.append(2) or True)
        assert applied == []
        finalizer.mark_terminal(1)
        assert applied == [2]
        queue.close()

    def test_force_owner_applies_dead_workers_finals(self):
        queue = make_queue()
        finalizer = _Finalizer(queue)
        applied = []
        finalizer.submit(2, "dead", lambda: applied.append(2) or True)
        finalizer.submit(3, "live", lambda: applied.append(3) or True)
        finalizer.force_owner("dead")
        assert applied == [2]  # out of order, but only the dead one
        finalizer.submit(1, "live", lambda: applied.append(1) or True)
        assert applied == [2, 1, 3]
        queue.close()

    def test_flush_applies_everything_left(self):
        queue = make_queue()
        finalizer = _Finalizer(queue)
        applied = []
        finalizer.submit(3, "w0", lambda: applied.append(3) or True)
        finalizer.submit(2, "w1", lambda: applied.append(2) or True)
        finalizer.flush()
        assert applied == [2, 3]
        assert finalizer.buffer == {}
        queue.close()
