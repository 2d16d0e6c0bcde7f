"""Stage, then settle: an attempt's rows reach the crawl database only
as one envelope, written by the broker when its job settles.

Pins the exactly-once ledger through the lease races that used to need
retractions (a lost attempt's rows are dropped before they are ever
written), the equality of thread and process crawls under the same
race, the byte-identity of fault-free crawls at any thread count, and
that slot recorders do not grow with the crawl and open no database.
"""

import sqlite3
import sys
import threading

import pytest

from repro.bundles import Bundle
from repro.core.lab import make_lab_network
from repro.faults import FaultPlan, FaultRule
from repro.obs.runner import run_telemetry_crawl
from repro.obs.stats import build_crawl_report
from repro.obs.telemetry import Telemetry
from repro.openwpm import BrowserParams, ManagerParams, TaskManager
from repro.openwpm.storage import StorageController
from repro.sched import COMPLETED, LEASED, JobQueue
from repro.sched.settle import _Finalizer

URLS = [f"https://lab.test/site-{i:05d}" for i in range(60)]
VOLATILE_TABLES = ("telemetry", "sqlite_sequence")


def dump_tables(db_path):
    """Every row of every table, fully ordered, minus volatile ones
    (the dump the CI equivalence job compares)."""
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


def make_manager(database_path=":memory:", browsers=1, seed=7,
                 fault_plan=None, quarantine_after=None,
                 failure_limit=3):
    return TaskManager(
        ManagerParams(database_path=database_path, seed=seed,
                      num_browsers=browsers, crash_probability=0.0,
                      failure_limit=failure_limit, fault_plan=fault_plan,
                      quarantine_after=quarantine_after),
        [BrowserParams(browser_id=0, dwell_time=1.0, seed=seed)
         for _ in range(browsers)],
        make_lab_network(), telemetry=Telemetry())


def assert_each_site_ends_once(manager, queue_path, urls):
    """Every site ends exactly once, and the books balance."""
    queue = JobQueue(queue_path)
    try:
        counts = queue.counts()
        assert counts["pending"] == counts["leased"] == 0
        completed = set(queue.sites(status="completed"))
        failed = set(queue.sites(status="failed"))
        assert completed | failed == set(urls)
        assert not completed & failed
        storage = manager.storage
        visited = {row["site_url"] for row in storage.query(
            "SELECT site_url FROM site_visits")}
        assert completed <= visited
        for url in urls:
            entries = storage.query(
                "SELECT (SELECT COUNT(*) FROM failed_visits "
                "WHERE site_url = ?) + (SELECT COUNT(*) FROM "
                "quarantined_sites WHERE site_url = ?) AS n",
                (url, url))[0]["n"]
            assert entries == (1 if url in failed else 0), url
        storage.persist_telemetry(manager.telemetry.snapshot())
        report = build_crawl_report(storage, queue=queue)
        assert report["reconciled"], [
            c for c in report["reconciliation"] if not c["ok"]]
    finally:
        queue.close()


def steal_lease_once(queue_path, stolen):
    """A visit callback handing the running job's lease to an intruder,
    already expired, so the worker's settle loses and a reclaim sweep
    takes the job."""

    def steal(browser, result):
        if stolen:
            return
        stolen.append(result.requested_url)
        conn = sqlite3.connect(queue_path)
        conn.execute("UPDATE jobs SET lease_owner = 'intruder', "
                     "lease_expires_at = 0 WHERE status = 'leased'")
        conn.commit()
        conn.close()

    return steal


class ProcessDied(BaseException):
    """The crawl process dying mid-write: no handler catches it."""


def die_writing_lease_expiry(record_envelope):
    """*record_envelope* (bound or not), but the first envelope carrying
    a ``lease_expired`` given-up row kills the process mid-transaction.
    The ledger is the last positional argument, as the broker passes
    it."""
    died = []

    def record(*args):
        if not died and any(row[3] == "lease_expired" for row
                            in args[-1].get("failed_visits", ())):
            died.append(True)
            raise ProcessDied()
        return record_envelope(*args)

    return record


class TestLedgerRaces:
    @pytest.mark.parametrize("seed", range(10))
    def test_hang_and_crash_on_two_threads_end_every_site_once(
            self, seed, tmp_path):
        """A hung-then-crashing site outlives its lease: a reclaim sweep
        fails the job (``lease_expired``) while the hung worker still
        exhausts ``failure_limit`` on it. Only one of the two verdicts
        may reach the ledger — the voided attempt's given-up row used
        to take the reclaim's row with it when it was retracted."""
        site = "site-00003"
        plan = FaultPlan([
            FaultRule(fault="hang", point="visit.start", site=site,
                      seconds=400.0),
            FaultRule(fault="crash", point="visit.page_load", site=site),
        ], seed=seed)
        urls = URLS[:30]
        queue_path = str(tmp_path / "race.queue")
        manager = make_manager(browsers=2, seed=seed, fault_plan=plan)
        report = manager.crawl_scheduled(urls, workers=2,
                                         queue_path=queue_path,
                                         max_attempts=1)
        assert report.drained
        assert_each_site_ends_once(manager, queue_path, urls)
        manager.close()

    def test_voided_attempt_leaves_the_same_tables_in_both_modes(
            self, tmp_path):
        """An attempt crashes once at ``visit.start``, retries, and then
        loses its lease mid-visit; with one attempt per job the reclaim
        fails the site. Threads and a worker process must write the
        same tables: the voided attempt's partial visit and crash rows
        never reach either database."""
        crash_once = FaultRule(fault="crash", point="visit.start",
                               times=1)
        thread_db = str(tmp_path / "thread.db")
        queue_path = str(tmp_path / "thread.queue")
        stolen = []
        manager = make_manager(thread_db,
                               fault_plan=FaultPlan([crash_once]))
        report = manager.crawl_scheduled(
            URLS[:1], workers=1, queue_path=queue_path, max_attempts=1,
            callbacks=[steal_lease_once(queue_path, stolen)])
        assert stolen == URLS[:1]
        assert report.lease_lost == 1 and report.failed == 1
        assert_each_site_ends_once(manager, queue_path, URLS[:1])
        manager.close()

        proc_db = str(tmp_path / "proc.db")
        proc_queue = str(tmp_path / "proc.queue")
        result = run_telemetry_crawl(
            site_count=1, seed=7, database_path=proc_db,
            crash_probability=0.0, browsers=1, web="lab", urls=URLS[:1],
            queue_path=proc_queue, worker_procs=1, max_attempts=1,
            lease_seconds=1.0,
            fault_plan=FaultPlan([crash_once, FaultRule(
                fault="hang", point="proc.mid_visit", times=1,
                seconds=3.0)]))
        assert result.report.failed == 1
        queue = JobQueue(proc_queue)
        try:
            proc_report = build_crawl_report(result.storage, queue=queue)
        finally:
            queue.close()
        assert proc_report["reconciled"], [
            c for c in proc_report["reconciliation"] if not c["ok"]]
        result.close()

        thread_tables = dump_tables(thread_db)
        proc_tables = dump_tables(proc_db)
        assert thread_tables["site_visits"] == []
        assert thread_tables["crash_history"] == []
        assert [row[2:] for row in thread_tables["failed_visits"]] \
            == [(URLS[0], 1, "lease_expired")]
        assert set(thread_tables) == set(proc_tables)
        for table in thread_tables:
            assert thread_tables[table] == proc_tables[table], table

    def test_refused_rerun_writes_the_dropped_quarantine_row(
            self, tmp_path):
        """A voided attempt trips the shared breaker, and its
        quarantine row is dropped with its envelope. The re-run is
        refused as quarantined, so its settle must write the row."""
        queue_path = str(tmp_path / "q.queue")
        stolen = []
        plan = FaultPlan([FaultRule(fault="crash",
                                    point="visit.storage_commit",
                                    times=1)])
        manager = make_manager(fault_plan=plan, quarantine_after=1)
        report = manager.crawl_scheduled(
            URLS[:1], workers=1, queue_path=queue_path, max_attempts=2,
            callbacks=[steal_lease_once(queue_path, stolen)])
        assert report.lease_lost == 1 and report.failed == 1
        rows = manager.storage.quarantined_rows()
        assert [(row["site_url"], row["reason"]) for row in rows] \
            == [(URLS[0], "breaker_open")]
        metrics = manager.telemetry.metrics
        assert metrics.counter_value("sites_quarantined_voided") == 1
        assert metrics.counter_value("sites_quarantined") == 2
        assert_each_site_ends_once(manager, queue_path, URLS[:1])
        manager.close()

    def test_crash_writing_a_lease_expiry_row_leaves_the_site_to_resume(
            self, tmp_path):
        """A reclaim finds the stolen lease out of attempts, and the
        process dies while the broker writes the ``failed_visits`` row.
        The job must still be leased, not committed ``failed`` with no
        ledger row, so ``--resume`` re-runs the site."""
        db_path = str(tmp_path / "crawl.db")
        queue_path = str(tmp_path / "crawl.queue")
        manager = make_manager(db_path)
        storage = manager.storage
        storage.record_envelope = die_writing_lease_expiry(
            storage.record_envelope)
        stolen = []
        with pytest.raises(ProcessDied):
            manager.crawl_scheduled(
                URLS[:1], workers=1, queue_path=queue_path,
                max_attempts=1,
                callbacks=[steal_lease_once(queue_path, stolen)])
        assert stolen == URLS[:1]
        queue = JobQueue(queue_path)
        assert queue.counts()["leased"] == 1
        queue.close()

        report = manager.crawl_scheduled(URLS[:1], workers=1,
                                         queue_path=queue_path,
                                         resume=True, max_attempts=1)
        assert report.released_leases == 1 and report.completed == 1
        assert_each_site_ends_once(manager, queue_path, URLS[:1])
        manager.close()


class TestRecordedCrawl:
    def test_bundle_holds_no_site_the_queue_never_completed(
            self, tmp_path, monkeypatch):
        """The envelope write fails for one site of a recorded crawl:
        the site stays leased and out of ``site_visits``, and the
        bundle, written by the same broker, must not hold it either."""
        victim = "https://lab.test/site-00002"
        record_envelope = StorageController.record_envelope

        def failing(self, visits, content, ledger):
            if any(visit["site_url"] == victim for visit in visits):
                raise sqlite3.OperationalError("disk I/O error")
            return record_envelope(self, visits, content, ledger)

        monkeypatch.setattr(StorageController, "record_envelope", failing)
        telemetry = Telemetry()
        bundle_dir = str(tmp_path / "bundle")
        queue_path = str(tmp_path / "crawl.queue")
        result = run_telemetry_crawl(
            site_count=5, seed=7, database_path=str(tmp_path / "c.db"),
            crash_probability=0.0, browsers=1, web="lab", workers=1,
            queue_path=queue_path, record_dir=bundle_dir,
            telemetry=telemetry)
        visited = {row["site_url"] for row in result.storage.query(
            "SELECT site_url FROM site_visits")}
        result.close()
        queue = JobQueue(queue_path)
        try:
            assert victim in queue.sites(status=LEASED)
            completed = queue.sites(status=COMPLETED)
        finally:
            queue.close()
        assert victim not in visited and completed
        bundle = Bundle(bundle_dir, allow_incomplete=True)
        try:
            recorded = bundle.recorded_sites()
        finally:
            bundle.close()
        assert sorted(recorded) == sorted(completed)
        assert telemetry.metrics.counter_value(
            "bundle_sites_recorded") == len(recorded)

    def test_contending_threads_record_the_inline_bundle(self, tmp_path):
        """Eight recording threads on two cores, switching every
        microsecond, archive what the inline crawl archives: a lost
        update in the broker's writes would show as a diff."""
        from repro.bundles import diff_bundles

        def record(name, **mode):
            telemetry = Telemetry()
            result = run_telemetry_crawl(
                site_count=60, seed=7, crash_probability=0.0, web="lab",
                record_dir=str(tmp_path / name), telemetry=telemetry,
                **mode)
            result.close()
            return telemetry

        record("inline", browsers=1)
        results = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.append(
                record("threads", browsers=8, workers=8,
                       queue_path=str(tmp_path / "t8.queue"))))
            runner.start()
            runner.join(timeout=300)
        finally:
            sys.setswitchinterval(previous)
        assert not runner.is_alive() and results
        assert results[0].metrics.counter_value(
            "bundle_sites_recorded") == 60
        inline = Bundle(str(tmp_path / "inline"))
        threads = Bundle(str(tmp_path / "threads"))
        try:
            assert diff_bundles(inline, threads)["zero_diffs"]
        finally:
            inline.close()
            threads.close()


class TestThreadEquivalence:
    @pytest.fixture(scope="class")
    def inline_baseline(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inline")
        db_path = str(tmp / "inline.db")
        run_telemetry_crawl(
            site_count=60, seed=7, database_path=db_path,
            crash_probability=0.0, browsers=1, web="lab").close()
        return dump_tables(db_path)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_thread_crawl_byte_identical_to_inline(self, threads,
                                                   tmp_path,
                                                   inline_baseline):
        db_path = str(tmp_path / f"threads{threads}.db")
        result = run_telemetry_crawl(
            site_count=60, seed=7, database_path=db_path,
            crash_probability=0.0, browsers=threads, web="lab",
            workers=threads, queue_path=str(tmp_path / "t.queue"))
        assert result.report.drained and result.report.completed == 60
        result.close()
        tables = dump_tables(db_path)
        assert set(tables) == set(inline_baseline)
        for table in tables:
            assert tables[table] == inline_baseline[table], table


    def test_contending_threads_match_inline(self, tmp_path,
                                             inline_baseline):
        """Eight threads on two cores, switching every microsecond: a
        lost update in the broker's ordering or its tally would show
        as a diverging table or a miscounted job."""
        db_path = str(tmp_path / "threads8.db")
        results = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.append(
                run_telemetry_crawl(
                    site_count=60, seed=7, database_path=db_path,
                    crash_probability=0.0, browsers=8, web="lab",
                    workers=8, queue_path=str(tmp_path / "t8.queue"))))
            runner.start()
            runner.join(timeout=300)
        finally:
            sys.setswitchinterval(previous)
        assert not runner.is_alive()
        report = results[0].report
        assert report.completed == 60 and report.drained
        results[0].close()
        tables = dump_tables(db_path)
        for table in inline_baseline:
            assert tables[table] == inline_baseline[table], table


class TestSlotStores:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_slot_stores_are_empty_after_a_crawl(self, workers):
        manager = make_manager(browsers=2)
        if workers is None:
            manager.crawl(URLS[:20])
        else:
            manager.crawl_scheduled(URLS[:20], workers=workers)
        assert manager.storage.query(
            "SELECT COUNT(*) AS n FROM site_visits")[0]["n"] == 20
        for slot in manager.browsers:
            envelope = slot.store.take_envelope()
            assert envelope["visits"] == envelope["content"] == []
            assert not any(envelope["ledger"].values())
        manager.close()

    def test_instrument_records_hold_only_the_last_site(self):
        """Each site starts with cleared in-memory instrument records,
        so they do not grow with the crawl: after a JS tranco crawl on
        one slot they mirror the last visit's rows exactly."""
        result = run_telemetry_crawl(
            site_count=20, seed=3, web="tranco", js_instrument=True,
            browsers=1, workers=1, crash_probability=0.0)
        try:
            storage = result.storage
            extension = result.manager.browsers[0].extension
            last = storage.query(
                "SELECT MAX(visit_id) AS v FROM site_visits")[0]["v"]

            def rows(sql):
                everything = storage.query(sql.format(where=""))
                own = storage.query(sql.format(
                    where=f"WHERE visit_id = {last}"))
                assert len(everything) > len(own) > 0, sql
                return [tuple(row) for row in own]

            assert [(r.symbol, r.operation, r.document_url)
                    for r in extension.js_instrument.records] == rows(
                "SELECT symbol, operation, document_url FROM javascript "
                "{where} ORDER BY id")
            assert [(r.url, r.resource_type)
                    for r in extension.http_instrument.records] == rows(
                "SELECT url, resource_type FROM http_requests {where} "
                "ORDER BY id")
            assert [(r.host, r.name)
                    for r in extension.cookie_instrument.records] == rows(
                "SELECT host, name FROM javascript_cookies {where} "
                "ORDER BY id")
        finally:
            result.close()

    def test_browser_slots_open_no_database(self, monkeypatch):
        """N browser slots, one storage connection: the crawl
        database's. A slot records into plain Python."""
        opened = []
        connect = sqlite3.connect

        def counting_connect(*args, **kwargs):
            opened.append(args[0] if args else kwargs.get("database"))
            return connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        manager = make_manager(browsers=3)
        assert opened == [":memory:"]
        manager.crawl(URLS[:3])
        assert opened == [":memory:"]
        manager.close()


class TestFinalizerHolds:
    def test_waiting_final_holds_its_lease(self):
        queue = JobQueue(lease_seconds=10.0)
        queue.enqueue(URLS[:2])
        first, second = queue.claim("w0"), queue.claim("w1")
        finalizer = _Finalizer(queue)
        finalizer.submit(second.job_id, "w1", lambda: True)
        queue.clock.advance(60.0)
        # Job 2 finished and waits for job 1: no sweep may take it.
        result = queue.reclaim_expired()
        assert [job.job_id for job in result.exhausted_jobs] == [] \
            and result.requeued == 1
        assert queue.job_status(second.job_id) == "leased"
        assert queue.job_status(first.job_id) == "pending"
        queue.close()

    def test_voided_final_of_a_settled_job_is_applied_at_once(self):
        queue = JobQueue()
        queue.enqueue(URLS[:1])
        finalizer = _Finalizer(queue)
        applied = []
        finalizer.submit(1, "w1", lambda: applied.append("w1") or True)
        finalizer.submit(1, "w0", lambda: applied.append("w0") or False)
        assert applied == ["w1", "w0"]
        assert finalizer.buffer == {}
        queue.close()

    def test_cursor_follows_job_ids_with_gaps(self):
        """Re-enqueueing known sites consumes AUTOINCREMENT ids, so a
        resumed run's new jobs do not follow on from the old ones."""
        queue = JobQueue()
        queue.enqueue(URLS[:2])
        queue.enqueue(URLS[:3])  # one new job, after two burnt ids
        ids = [row["job_id"] for row in queue.job_rows()]
        assert ids[-1] > ids[-2] + 1
        finalizer = _Finalizer(queue)
        applied = []
        for job_id in reversed(ids):
            finalizer.submit(job_id, "w0",
                             lambda job_id=job_id: applied.append(job_id)
                             or True)
        assert applied == ids
        queue.close()

