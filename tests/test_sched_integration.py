"""Scheduler integration: determinism, parity, crash-resume, dwell.

The acceptance criteria for the scheduled-crawl subsystem:

* a 1-worker scheduled crawl writes a **byte-identical** crawl database
  to the plain sequential path (same storage statements, same order);
* a 4-worker crawl of a couple hundred synthetic sites produces the
  same per-site record counts as the sequential crawl;
* an interrupted crawl resumed with the same queue file finishes the
  remainder without re-visiting (duplicating) completed sites, and the
  queue reconciles to zero pending.
"""

import hashlib

import pytest

from repro.core.lab import make_lab_network
from repro.obs.telemetry import Telemetry
from repro.openwpm import BrowserParams, ManagerParams, TaskManager

SITE_COUNT = 200


def lab_urls(count):
    return [f"https://lab.test/site-{i:05d}" for i in range(count)]


def make_manager(database_path=":memory:", browsers=1, seed=3,
                 crash_probability=0.0, telemetry=None):
    return TaskManager(
        ManagerParams(database_path=database_path, seed=seed,
                      num_browsers=browsers,
                      crash_probability=crash_probability),
        [BrowserParams(browser_id=i, dwell_time=1.0, seed=seed + i)
         for i in range(browsers)],
        make_lab_network(), telemetry=telemetry)


def file_sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def per_site_counts(storage, table):
    return {row["site_url"]: int(row["n"]) for row in storage.query(
        f"SELECT v.site_url AS site_url, COUNT(t.id) AS n "
        f"FROM site_visits v LEFT JOIN {table} t "
        f"ON t.visit_id = v.visit_id GROUP BY v.site_url")}


class TestDeterminism:
    def test_one_worker_db_byte_identical_to_sequential(self, tmp_path):
        """The determinism pin: scheduling must not perturb crawl data.

        Crash injection is on, so the retry/restart machinery runs in
        both paths too.
        """
        urls = lab_urls(40)
        seq_path = str(tmp_path / "sequential.sqlite")
        sched_path = str(tmp_path / "scheduled.sqlite")

        manager = make_manager(seq_path, crash_probability=0.1)
        manager.crawl(urls)
        manager.close()

        manager = make_manager(sched_path, crash_probability=0.1)
        report = manager.crawl_scheduled(urls, workers=1)
        manager.close()

        assert report.completed + report.failed == len(urls)
        assert file_sha256(seq_path) == file_sha256(sched_path)


class TestParallelParity:
    def test_four_workers_match_sequential_record_counts(self):
        urls = lab_urls(SITE_COUNT)

        sequential = make_manager(browsers=1)
        sequential.crawl(urls)

        parallel = make_manager(browsers=4)
        report = parallel.crawl_scheduled(urls, workers=4)

        assert report.completed == SITE_COUNT
        assert report.drained
        for table in ("http_requests", "http_responses",
                      "javascript_cookies"):
            assert per_site_counts(parallel.storage, table) \
                == per_site_counts(sequential.storage, table), table
        visits = parallel.storage.query(
            "SELECT COUNT(*) AS n, COUNT(DISTINCT site_url) AS d "
            "FROM site_visits")[0]
        assert visits["n"] == SITE_COUNT
        assert visits["d"] == SITE_COUNT
        sequential.close()
        parallel.close()

    def test_workers_capped_by_browser_slots(self):
        manager = make_manager(browsers=2)
        with pytest.raises(ValueError):
            manager.crawl_scheduled(lab_urls(4), workers=3)
        manager.close()


class TestCrashResume:
    def test_resume_finishes_without_duplicating_visits(self, tmp_path):
        urls = lab_urls(60)
        db_path = str(tmp_path / "crawl.sqlite")
        queue_path = str(tmp_path / "crawl.queue")

        # First process: crawl part of the list, then "die" (graceful
        # stop plays the part of the kill; the queue file is what the
        # next process sees either way).
        first = make_manager(db_path, browsers=2)
        report = first.crawl_scheduled(urls, workers=2,
                                       queue_path=queue_path,
                                       stop_after_jobs=20)
        first.close()
        assert report.interrupted
        completed_first = report.completed
        assert 0 < completed_first < len(urls)

        # Second process: fresh manager over the same database + queue.
        second = make_manager(db_path, browsers=2)
        resumed = second.crawl_scheduled(urls, workers=2,
                                         queue_path=queue_path,
                                         resume=True)
        assert resumed.drained
        assert resumed.counts["pending"] == 0
        assert resumed.counts["leased"] == 0
        assert resumed.counts["completed"] == len(urls)
        assert resumed.completed == len(urls) - completed_first

        # No site was visited twice (crash injection is off).
        rows = second.storage.query(
            "SELECT COUNT(*) AS n, COUNT(DISTINCT site_url) AS d "
            "FROM site_visits")[0]
        assert rows["n"] == rows["d"] == len(urls)
        second.close()

    def test_resume_reconciles_in_stats_report(self, tmp_path):
        from repro.obs.runner import run_telemetry_crawl
        from repro.obs.stats import build_crawl_report
        from repro.sched import JobQueue

        db_path = str(tmp_path / "crawl.sqlite")
        queue_path = str(tmp_path / "crawl.queue")

        first = run_telemetry_crawl(
            site_count=40, database_path=db_path, browsers=2,
            crash_probability=0.05, workers=2, queue_path=queue_path,
            stop_after_jobs=15)
        first.close()

        second = run_telemetry_crawl(
            site_count=40, database_path=db_path, browsers=2,
            crash_probability=0.05, workers=2, queue_path=queue_path,
            resume=True)
        queue = JobQueue(queue_path)
        try:
            report = build_crawl_report(second.storage, queue=queue)
        finally:
            queue.close()
            second.close()
        assert report["scheduler"] is not None
        assert report["queue"]["drained"]
        assert report["reconciled"], report["reconciliation"]


class TestSchedulerTelemetry:
    def test_gauges_histograms_and_counters_recorded(self):
        telemetry = Telemetry()
        manager = make_manager(browsers=2, telemetry=telemetry)
        manager.crawl_scheduled(lab_urls(10), workers=2)

        metrics = telemetry.metrics
        assert metrics.counter_value("sched_jobs_claimed") == 10
        assert metrics.counter_value("sched_jobs_completed") == 10
        assert metrics.gauge_value("sched_queue_depth",
                                   state="completed") == 10
        assert metrics.gauge_value("sched_queue_depth",
                                   state="pending") == 0
        assert metrics.gauge_value("sched_workers_busy") == 0
        assert metrics.histogram("queue_wait_seconds").count == 10
        assert metrics.histogram("lease_duration_seconds").count == 10
        manager.close()

    def test_stats_report_includes_scheduler_section(self):
        from repro.obs.stats import build_crawl_report, \
            render_crawl_report

        telemetry = Telemetry()
        manager = make_manager(browsers=2, telemetry=telemetry)
        manager.crawl_scheduled(lab_urls(10), workers=2)
        manager.storage.persist_telemetry(telemetry.snapshot())
        report = build_crawl_report(manager.storage)
        assert report["scheduler"]["jobs_completed"] == 10
        assert report["reconciled"], report["reconciliation"]
        text = render_crawl_report(report)
        assert "Scheduler" in text
        assert "queue wait (mean s)" in text
        manager.close()


class TestQueueLossLedger:
    def test_worker_fault_retries_then_writes_failed_visit_row(self):
        """A generic handler fault gets one backed-off re-run (default
        ``max_attempts=2``), and its terminal failure lands in
        ``failed_visits`` so the crawl-loss ledger stays complete."""
        manager = make_manager()

        def exploding_callback(browser, result):
            raise RuntimeError("instrument exploded")

        report = manager.crawl_scheduled(
            lab_urls(1), workers=1, callbacks=[exploding_callback])
        assert report.retried == 1
        assert report.failed == 1
        rows = manager.storage.query("SELECT * FROM failed_visits")
        assert len(rows) == 1
        assert rows[0]["site_url"] == lab_urls(1)[0]
        assert "RuntimeError" in rows[0]["reason"]
        assert manager.failed_sites == lab_urls(1)
        manager.close()

    def test_failure_limit_path_writes_exactly_one_row(self):
        """The failure_limit path already records its own row; the
        queue-side hook must not duplicate it."""
        manager = make_manager(crash_probability=1.0)
        report = manager.crawl_scheduled(lab_urls(1), workers=1)
        assert report.failed == 1
        rows = manager.storage.query("SELECT * FROM failed_visits")
        assert len(rows) == 1
        assert rows[0]["reason"] == "failure_limit"
        manager.close()


class TestParallelTelemetryIntegrity:
    def test_four_workers_produce_clean_trace_trees(self):
        """Regression: a shared span stack let one worker's span end
        unwind another worker's in-flight spans (orphaned statuses,
        mis-parenting) and racing counters could lose increments,
        breaking the stats reconciliation under the default CLI path."""
        telemetry = Telemetry()
        manager = make_manager(browsers=4, telemetry=telemetry,
                               crash_probability=0.05)
        urls = lab_urls(80)
        report = manager.crawl_scheduled(urls, workers=4)
        assert report.drained

        spans = telemetry.tracer.finished_spans()
        assert not [s for s in spans if s.status == "error:orphaned"]
        visit_spans = [s for s in spans if s.name == "visit"]
        assert len(visit_spans) == len(urls)
        # Every visit is a root of its own trace; its stages parent to
        # it, never to another worker's visit.
        for span in visit_spans:
            assert span.parent_id is None
        metrics = telemetry.metrics
        assert metrics.counter_value("sched_jobs_completed") \
            == metrics.counter_value("visits_completed") \
            == report.completed
        manager.close()


class TestDwellTime:
    def test_get_passes_dwell_time_through(self):
        """Regression: ``TaskManager.get`` used to drop ``dwell_time``.

        The browser's virtual clock starts each site at 0 and idles for
        the dwell, so the applied value is visible in how far time
        advanced during the visit.
        """
        manager = make_manager()
        times = []
        callback = [lambda browser, result:
                    times.append(browser.current_time)]
        manager.get("https://lab.test/a", callbacks=callback)
        manager.get("https://lab.test/b", callbacks=callback,
                    dwell_time=100.0)
        assert times[0] < 50.0
        assert times[1] >= 100.0
        manager.close()

    def test_default_dwell_still_from_browser_params(self):
        manager = make_manager()
        times = []
        manager.get("https://lab.test/a", callbacks=[
            lambda browser, result: times.append(browser.current_time)])
        # dwell_time=1.0 from BrowserParams: the visit idles ~1 virtual
        # second, nowhere near the 100s override exercised above.
        assert times[0] < 50.0
        manager.close()
