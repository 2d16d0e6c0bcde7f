"""Fault injection, supervision, and the chaos-invariant harness.

Three layers of coverage:

* unit tests for :class:`repro.faults.FaultPlan` matching/determinism
  and the supervision primitives;
* targeted integration tests — one per fault kind — proving each
  injected failure is survived *and* accounted for (the failure shows
  up in the right counter, table, and ``repro stats`` check);
* the chaos harness: scheduled crawls under randomized seeded fault
  plans, asserting the accounting invariant that every enqueued site
  ends exactly once — as a completed visit, a ``failed_visits`` row, or
  a ``quarantined_sites`` row — with the stats report reconciling, even
  across a kill + ``--resume`` mid-chaos.

``REPRO_CHAOS_SEED`` adds an extra seed to the chaos matrix (the CI
chaos-smoke job sweeps it).
"""

import json
import os
import random
import sqlite3

import pytest

from repro.core.lab import make_lab_network
from repro.faults import (
    CHOKE_POINTS,
    CircuitBreaker,
    CrashLoopDetector,
    FaultPlan,
    FaultRule,
    NetworkFault,
    VisitDeadlineExceeded,
    Watchdog,
)
from repro.net.http import HttpRequest
from repro.net.url import URL
from repro.obs.telemetry import Telemetry
from repro.openwpm import BrowserParams, ManagerParams, TaskManager

URLS = [f"https://lab.test/site-{i:05d}" for i in range(50)]


def lab_urls(count):
    return URLS[:count]


def make_manager(database_path=":memory:", browsers=1, seed=3,
                 crash_probability=0.0, telemetry=None, fault_plan=None,
                 stage_deadline=None, quarantine_after=None,
                 crash_loop_threshold=None, failure_limit=3):
    return TaskManager(
        ManagerParams(database_path=database_path, seed=seed,
                      num_browsers=browsers,
                      crash_probability=crash_probability,
                      failure_limit=failure_limit,
                      fault_plan=fault_plan,
                      stage_deadline_seconds=stage_deadline,
                      quarantine_after=quarantine_after,
                      crash_loop_threshold=crash_loop_threshold),
        [BrowserParams(browser_id=i, dwell_time=1.0, seed=seed + i)
         for i in range(browsers)],
        make_lab_network(), telemetry=telemetry)


def build_report(manager):
    from repro.obs.stats import build_crawl_report

    manager.storage.persist_telemetry(manager.telemetry.snapshot())
    return build_crawl_report(manager.storage)


# ----------------------------------------------------------------------
# FaultPlan unit tests
# ----------------------------------------------------------------------
class TestFaultRule:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultRule(fault="meteor_strike")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(fault="crash", probability=1.5)

    def test_nth_and_times_validated(self):
        with pytest.raises(ValueError):
            FaultRule(fault="crash", nth=0)
        with pytest.raises(ValueError):
            FaultRule(fault="crash", times=0)

    @pytest.mark.parametrize("point", ["proc.resolve", "visit.pageload",
                                       "browser.*"])
    def test_point_matching_no_choke_point_rejected(self, point):
        # A rule that can never fire would let a chaos run pass
        # without injecting anything.
        with pytest.raises(ValueError, match="matches no choke point"):
            FaultPlan.from_dict(
                {"rules": [{"fault": "crash", "point": point}]})

    @pytest.mark.parametrize("point", ["visit.*", "proc.claim", "*"])
    def test_known_point_or_matching_glob_accepted(self, point):
        plan = FaultPlan.from_dict(
            {"rules": [{"fault": "crash", "point": point}]})
        assert plan.rules[0].point == point

    def test_docstring_table_lists_every_choke_point(self):
        import re

        import repro.faults.plan as plan_module

        lines = plan_module.__doc__.splitlines()
        rules = [i for i, line in enumerate(lines)
                 if line.startswith("====")]
        documented = tuple(
            match.group(1) for line in lines[rules[1] + 1:rules[2]]
            if (match := re.match(r"``([a-z_]+\.[a-z_]+)``", line)))
        assert documented == CHOKE_POINTS


class TestFaultPlanMatching:
    def test_point_glob_and_site_substring(self):
        plan = FaultPlan([FaultRule(fault="crash", point="visit.*",
                                    site="site-00003")])
        assert plan.check("visit.start", url=URLS[3]) is not None
        assert plan.check("visit.callbacks", url=URLS[3]) is not None
        assert plan.check("visit.start", url=URLS[4]) is None
        assert plan.check("network.fetch", url=URLS[3]) is None

    def test_site_glob(self):
        plan = FaultPlan([FaultRule(fault="crash",
                                    site="*site-0000?")])
        assert plan.check("visit.start", url=URLS[9]) is not None
        assert plan.check("visit.start", url=URLS[10]) is None

    def test_nth_fires_exactly_once(self):
        plan = FaultPlan([FaultRule(fault="crash", nth=2)])
        hits = [plan.check("visit.start", url=URLS[i]) is not None
                for i in range(5)]
        assert hits == [False, True, False, False, False]

    def test_times_caps_firings(self):
        plan = FaultPlan([FaultRule(fault="crash", times=2)])
        hits = [plan.check("visit.start") is not None for _ in range(5)]
        assert hits == [True, True, False, False, False]

    def test_first_matching_rule_wins(self):
        plan = FaultPlan([
            FaultRule(fault="hang", site="site-00001"),
            FaultRule(fault="crash"),
        ])
        assert plan.check("visit.start", url=URLS[1]).fault == "hang"
        assert plan.check("visit.start", url=URLS[2]).fault == "crash"

    def test_probabilistic_rules_deterministic_per_seed(self):
        def run(seed):
            plan = FaultPlan(
                [FaultRule(fault="crash", probability=0.3)], seed=seed)
            return [plan.check("visit.start", url=url) is not None
                    for url in URLS]

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_draws_consumed_even_after_times_budget_spent(self):
        """RNG consumption is outcome-independent: a spent ``times``
        budget must not shift later rules' draw sequence."""
        base = FaultPlan([FaultRule(fault="crash", probability=0.5)],
                         seed=7)
        capped = FaultPlan(
            [FaultRule(fault="crash", probability=0.5, times=1)], seed=7)
        base_hits = [base.check("visit.start") is not None
                     for _ in range(20)]
        capped_hits = [capped.check("visit.start") is not None
                       for _ in range(20)]
        assert sum(capped_hits) == 1
        assert capped_hits.index(True) == base_hits.index(True)


class TestFaultPlanSerialisation:
    def test_json_round_trip(self):
        plan = FaultPlan([
            FaultRule(fault="hang", point="visit.page_load",
                      site="site-0001*", seconds=120.0),
            FaultRule(fault="connection_reset", point="network.fetch",
                      probability=0.1, times=3),
        ], seed=42)
        clone = FaultPlan.from_json(json.dumps(plan.to_dict()))
        assert clone.to_dict() == plan.to_dict()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"seed": 9, "rules": [{"fault": "storage_busy",
                                   "point": "storage.begin_visit"}]}))
        plan = FaultPlan.from_json_file(str(path))
        assert plan.seed == 9
        assert plan.rules[0].fault == "storage_busy"

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-rule"):
            FaultPlan.from_dict(
                {"rules": [{"fault": "crash", "wday": "tuesday"}]})


class TestSupervisionPrimitives:
    def test_watchdog_checks_stage_deadlines(self):
        class Clock:
            value = 0.0

            def peek(self):
                return self.value

        clock = Clock()
        watch = Watchdog(clock, default_deadline=10.0,
                         stage_deadlines={"callbacks": 1.0})
        started = watch.start()
        clock.value = 5.0
        watch.check("page_load", started)  # within default
        with pytest.raises(VisitDeadlineExceeded):
            watch.check("callbacks", started)  # over the override

    def test_circuit_breaker_opens_once(self):
        breaker = CircuitBreaker(2)
        assert breaker.record_failure("https://x.test/") is False
        assert breaker.record_failure("https://x.test/") is True
        assert breaker.is_open("https://x.test/")
        # Already open: never "newly opened" again.
        assert breaker.record_failure("https://x.test/") is False
        assert breaker.open_sites() == ["https://x.test/"]

    def test_crash_loop_backoff_grows_then_caps(self):
        detector = CrashLoopDetector(2, window_seconds=100.0,
                                     cooldown_seconds=10.0,
                                     max_backoff_factor=4.0)
        assert detector.on_restart(0, 1.0) == 0.0
        assert detector.on_restart(0, 2.0) == 10.0  # first streak
        assert detector.on_restart(0, 3.0) == 0.0   # window cleared
        assert detector.on_restart(0, 4.0) == 20.0  # doubled
        detector.on_restart(0, 5.0)
        assert detector.on_restart(0, 6.0) == 40.0
        detector.on_restart(0, 7.0)
        assert detector.on_restart(0, 8.0) == 40.0  # capped at 4x


# ----------------------------------------------------------------------
# One integration test per fault kind
# ----------------------------------------------------------------------
class TestNetworkFaultInjection:
    def test_transient_reset_is_retried_and_counted(self):
        plan = FaultPlan([FaultRule(fault="connection_reset",
                                    point="network.fetch", times=1)])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry())
        results = manager.crawl(lab_urls(3))
        assert all(result is not None for result in results)
        metrics = manager.telemetry.metrics
        assert metrics.counter_value("visits_network_faults") == 1
        assert metrics.counter_value("visits_completed") == 3
        report = build_report(manager)
        assert report["reconciled"], report["reconciliation"]
        manager.close()

    def test_persistent_reset_exhausts_with_network_fault_reason(self):
        plan = FaultPlan([FaultRule(fault="connection_reset",
                                    point="network.fetch",
                                    site="site-00001")])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry())
        results = manager.crawl(lab_urls(3))
        assert results[1] is None
        rows = manager.storage.query("SELECT * FROM failed_visits")
        assert len(rows) == 1
        assert rows[0]["site_url"] == URLS[1]
        assert rows[0]["reason"] == "network_fault"
        assert manager.failed_sites == [URLS[1]]
        report = build_report(manager)
        assert report["reconciled"], report["reconciliation"]
        manager.close()

    def test_truncated_body_corrupts_silently(self):
        """The paper's nightmare fault: nothing errors, the data is
        just wrong. The halved body is visible at the network layer and
        the crawl completes as if healthy."""
        from repro.net.network import ClientIdentity

        clean = make_lab_network()
        response, _ = clean.fetch(
            HttpRequest(url=URL.parse(URLS[1])), ClientIdentity("probe"))
        full_body = response.body

        network = make_lab_network()
        network.fault_plan = FaultPlan(
            [FaultRule(fault="truncated_body", point="network.fetch")])
        truncated, _ = network.fetch(
            HttpRequest(url=URL.parse(URLS[1])), ClientIdentity("probe"))
        assert len(truncated.body) == len(full_body) // 2

        plan = FaultPlan([FaultRule(fault="truncated_body",
                                    point="network.fetch")])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry())
        results = manager.crawl(lab_urls(2))
        assert all(result is not None for result in results)
        assert plan.fire_count("truncated_body") > 0
        assert manager.telemetry.metrics.counter_value(
            "visits_completed") == 2
        manager.close()

    def test_slow_response_burns_virtual_time(self):
        plan = FaultPlan([FaultRule(fault="slow_response",
                                    point="network.fetch", times=1,
                                    seconds=25.0)])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry(),
                               stage_deadline=50.0)
        results = manager.crawl(lab_urls(2))
        assert all(result is not None for result in results)
        assert plan.burned_seconds == 25.0
        manager.close()


class TestStorageFaultInjection:
    def test_transient_busy_is_retried_before_any_side_effect(self):
        plan = FaultPlan([FaultRule(fault="storage_busy",
                                    point="storage.begin_visit",
                                    times=1)])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry())
        results = manager.crawl(lab_urls(2))
        assert all(result is not None for result in results)
        metrics = manager.telemetry.metrics
        assert metrics.counter_value("visits_storage_faults") == 1
        # The faulted attempt wrote nothing: rows == successful attempts.
        rows = manager.storage.query(
            "SELECT COUNT(*) AS n FROM site_visits")[0]["n"]
        assert rows == 2
        report = build_report(manager)
        assert report["reconciled"], report["reconciliation"]
        manager.close()

    def test_persistent_busy_gives_up_with_storage_fault_reason(self):
        plan = FaultPlan([FaultRule(fault="storage_busy",
                                    point="storage.begin_visit",
                                    site="site-00000")])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry())
        results = manager.crawl(lab_urls(2))
        assert results[0] is None and results[1] is not None
        rows = manager.storage.query("SELECT * FROM failed_visits")
        assert [row["reason"] for row in rows] == ["storage_fault"]
        report = build_report(manager)
        assert report["reconciled"], report["reconciliation"]
        manager.close()


class TestWatchdogDefense:
    def test_hung_visit_aborted_and_exhausted_with_deadline_reason(self):
        plan = FaultPlan([FaultRule(fault="hang",
                                    point="visit.page_load",
                                    site="site-00001", seconds=200.0)])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry(),
                               stage_deadline=50.0)
        results = manager.crawl(lab_urls(3))
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        metrics = manager.telemetry.metrics
        assert metrics.counter_value("visits_hung") == 3  # failure_limit
        assert metrics.counter_value("visits_aborted") == 3
        rows = manager.storage.query("SELECT * FROM failed_visits")
        assert [row["reason"] for row in rows] == ["deadline"]
        # Aborted attempts left no site_visits rows behind.
        hung_rows = manager.storage.query(
            "SELECT COUNT(*) AS n FROM site_visits WHERE site_url = ?",
            (URLS[1],))[0]["n"]
        assert hung_rows == 0
        aborts = manager.storage.query(
            "SELECT COUNT(*) AS n FROM crash_history "
            "WHERE action = 'watchdog_abort'")[0]["n"]
        assert aborts == 3
        report = build_report(manager)
        assert report["reconciled"], report["reconciliation"]
        manager.close()

    def test_without_watchdog_the_hang_burns_through(self):
        """The undefended baseline the watchdog exists for: the hang
        consumes virtual hours and the visit still 'succeeds'."""
        plan = FaultPlan([FaultRule(fault="hang",
                                    point="visit.page_load", times=1,
                                    seconds=3600.0)])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry())
        results = manager.crawl(lab_urls(1))
        assert results[0] is not None  # nothing noticed the hang
        assert plan.burned_seconds == 3600.0
        manager.close()


class TestQuarantine:
    def test_crashing_site_is_quarantined_and_recorded(self):
        plan = FaultPlan([FaultRule(fault="crash", point="visit.start",
                                    site="site-00001")])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry(),
                               quarantine_after=2)
        results = manager.crawl(lab_urls(3))
        assert results[1] is None
        rows = manager.storage.quarantined_rows()
        assert len(rows) == 1
        assert rows[0]["site_url"] == URLS[1]
        assert rows[0]["failures"] == 2
        assert rows[0]["reason"] == "crash"
        assert manager.is_quarantined(URLS[1])
        # Breaker tripped on failure 2 of 3 allowed attempts: the site
        # ends as quarantined, not exhausted — no failed_visits row.
        assert manager.storage.query(
            "SELECT COUNT(*) AS n FROM failed_visits")[0]["n"] == 0
        metrics = manager.telemetry.metrics
        assert metrics.counter_value("sites_quarantined") == 1
        report = build_report(manager)
        assert report["reconciled"], report["reconciliation"]
        manager.close()

    def test_quarantine_skips_further_visits(self):
        plan = FaultPlan([FaultRule(fault="crash", point="visit.start",
                                    site="site-00001")])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry(),
                               quarantine_after=1)
        manager.crawl([URLS[1]])
        attempts_before = manager.telemetry.metrics.counter_value(
            "visit_attempts_total")
        assert manager.crawl([URLS[1]]) == [None]
        # The second crawl never reached the visit machinery.
        assert manager.telemetry.metrics.counter_value(
            "visit_attempts_total") == attempts_before
        assert manager.telemetry.metrics.counter_value(
            "visits_quarantined") == 2
        report = build_report(manager)
        assert report["reconciled"], report["reconciliation"]
        manager.close()

    def test_quarantine_survives_reopening_the_database(self, tmp_path):
        db_path = str(tmp_path / "crawl.sqlite")
        plan = FaultPlan([FaultRule(fault="crash", point="visit.start",
                                    site="site-00001")])
        first = make_manager(db_path, fault_plan=plan,
                             telemetry=Telemetry(), quarantine_after=2)
        first.crawl([URLS[1]])
        assert first.is_quarantined(URLS[1])
        first.close()

        second = make_manager(db_path, telemetry=Telemetry(),
                              quarantine_after=2)
        # What the runner's resume path does: carry the previous run's
        # persisted counters forward so the books stay cumulative.
        second.telemetry.metrics.restore(
            second.storage.telemetry_metrics())
        assert second.is_quarantined(URLS[1])
        assert second.crawl([URLS[1]]) == [None]
        report = build_report(second)
        assert report["reconciled"], report["reconciliation"]
        second.close()


class TestCrashLoopDetection:
    def test_cooldown_applied_and_crash_count_gauge_exposed(self):
        plan = FaultPlan([FaultRule(fault="crash", point="visit.start",
                                    site="site-0000")])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry(),
                               crash_loop_threshold=2)
        before = manager.telemetry.clock.peek()
        manager.crawl(lab_urls(2))
        metrics = manager.telemetry.metrics
        assert metrics.counter_value("browser_cooldowns") >= 1
        # Cooldowns burn real virtual time (default 30s each).
        assert manager.telemetry.clock.peek() - before >= 30.0
        # Satellite: ManagedBrowser.crash_count surfaces as a gauge.
        slot = manager.browsers[0]
        assert slot.crash_count == 6  # 2 sites x failure_limit
        assert metrics.gauge_value("browser_crash_count",
                                   browser="0") == slot.crash_count
        from repro.obs.stats import render_crawl_report

        report = build_report(manager)
        assert report["reconciled"], report["reconciliation"]
        assert "Browser crash counts" in render_crawl_report(report)
        manager.close()


class TestWorkerDeath:
    def test_abandoned_lease_is_reclaimed_and_job_completes(self):
        plan = FaultPlan([FaultRule(fault="worker_death",
                                    point="pool.lease", times=1)])
        manager = make_manager(fault_plan=plan, telemetry=Telemetry())
        report = manager.crawl_scheduled(lab_urls(5), workers=1,
                                         max_attempts=3,
                                         lease_seconds=100.0)
        assert report.worker_deaths == 1
        assert report.reclaimed >= 1
        assert report.completed == 5
        assert report.drained
        metrics = manager.telemetry.metrics
        assert metrics.counter_value("sched_worker_deaths") == 1
        stats = build_report(manager)
        assert stats["reconciled"], stats["reconciliation"]
        manager.close()


class TestHungWorkerLeaseExpiry:
    def test_lease_expires_and_another_worker_finishes_the_site(self):
        """Satellite: a genuinely hung worker (hang burns past the
        lease) loses the site to a healthy worker. The hung attempt's
        partial rows are aborted, the lease-expiry fail is voided, and
        exactly one completed site_visits row exists at the end."""
        plan = FaultPlan([FaultRule(fault="hang",
                                    point="visit.page_load", nth=1,
                                    seconds=600.0)])
        manager = make_manager(browsers=2, fault_plan=plan,
                               telemetry=Telemetry(),
                               stage_deadline=50.0)
        report = manager.crawl_scheduled([URLS[0]], workers=2,
                                         max_attempts=3,
                                         lease_seconds=300.0)
        assert report.completed == 1
        assert report.drained
        assert report.lease_lost == 1  # the hung worker's void fail
        assert report.reclaimed == 1
        rows = manager.storage.query(
            "SELECT COUNT(*) AS n FROM site_visits WHERE site_url = ?",
            (URLS[0],))[0]["n"]
        assert rows == 1
        metrics = manager.telemetry.metrics
        assert metrics.counter_value("visits_hung") == 1
        assert metrics.counter_value("visits_abandoned") == 1
        assert metrics.counter_value("sched_leases_lost") == 1
        stats = build_report(manager)
        assert stats["reconciled"], stats["reconciliation"]
        manager.close()


class TestLateCompletion:
    """Lease-race semantics around ``JobQueue.complete``.

    On the shared virtual clock another worker's hang can burn a
    healthy worker's lease away mid-visit. The worker calling
    ``complete`` is alive and its data is committed, so the completion
    must win unless someone else already re-leased the job — and in
    that losing case the committed copy must be discarded.
    """

    def test_complete_wins_while_still_leased_despite_expiry(self):
        from repro.sched import JobQueue

        queue = JobQueue(lease_seconds=10.0)
        queue.enqueue(URLS[:1])
        job = queue.claim("w0")
        queue.clock.advance(60.0)  # collateral burn
        queue.complete(job.job_id, "w0")  # must not raise
        assert queue.counts()["completed"] == 1

    def test_complete_wins_after_reclaim_requeued_unclaimed(self):
        from repro.sched import JobQueue

        queue = JobQueue(lease_seconds=10.0, max_attempts=3)
        queue.enqueue(URLS[:1])
        job = queue.claim("w0")
        queue.clock.advance(60.0)
        assert queue.reclaim_expired().requeued == 1
        queue.complete(job.job_id, "w0")  # pending + unclaimed: ours
        assert queue.counts()["completed"] == 1
        assert queue.counts()["pending"] == 0

    def test_complete_loses_to_a_worker_that_released_the_job(self):
        from repro.sched import JobQueue, LeaseError

        queue = JobQueue(lease_seconds=10.0, max_attempts=3,
                         backoff_base=0.0)
        queue.enqueue(URLS[:1])
        job = queue.claim("w0")
        queue.clock.advance(60.0)
        assert queue.reclaim_expired().requeued == 1
        queue.clock.advance(60.0)  # past the requeue backoff
        stolen = queue.claim("w1")
        assert stolen is not None and stolen.job_id == job.job_id
        with pytest.raises(LeaseError):
            queue.complete(job.job_id, "w0")
        queue.complete(stolen.job_id, "w1")
        assert queue.counts()["completed"] == 1

    def test_fail_still_strict_on_expired_lease(self):
        from repro.sched import JobQueue, LeaseError

        queue = JobQueue(lease_seconds=10.0)
        queue.enqueue(URLS[:1])
        job = queue.claim("w0")
        queue.clock.advance(60.0)
        with pytest.raises(LeaseError):
            queue.fail(job.job_id, "w0", "boom")

    def test_lost_race_discards_the_committed_copy(self, tmp_path):
        """End-to-end discard path: a saboteur re-leases the job while
        the visit is mid-flight, so the worker's ``complete`` loses,
        the committed visit row is deleted, and the site is re-run —
        leaving exactly one copy and balanced books."""
        queue_path = str(tmp_path / "race.queue")
        sabotaged = []

        def steal_lease(browser, result):
            if sabotaged:
                return
            sabotaged.append(result.requested_url)
            conn = sqlite3.connect(queue_path)
            # Already-expired so the poll loop reclaims it right away
            # instead of waiting out the intruder's lease.
            conn.execute("UPDATE jobs SET lease_owner = 'intruder', "
                         "lease_expires_at = 0")
            conn.commit()
            conn.close()

        manager = make_manager(telemetry=Telemetry())
        report = manager.crawl_scheduled(
            URLS[:1], workers=1, queue_path=queue_path,
            callbacks=[steal_lease], max_attempts=2,
            lease_seconds=50.0)
        assert sabotaged == URLS[:1]
        assert report.drained
        assert report.completed == 1
        assert report.lease_lost == 1
        metrics = manager.telemetry.metrics
        assert metrics.counter_value("visits_discarded") == 1
        assert metrics.counter_value("visits_completed") == 2
        rows = manager.storage.query(
            "SELECT COUNT(*) AS n FROM site_visits WHERE site_url = ?",
            (URLS[0],))[0]["n"]
        assert rows == 1
        assert_chaos_invariant(manager, queue_path, URLS[:1])
        manager.close()


class TestSequentialCrawlResilience:
    def test_callback_explosion_no_longer_aborts_the_crawl(self):
        """Satellite regression: one broken callback used to kill the
        whole sequential crawl; now the loss is recorded and the crawl
        moves on."""
        bombs = {URLS[1]}

        def exploding(browser, result):
            if result.requested_url in bombs:
                raise RuntimeError("instrument exploded")

        manager = make_manager(telemetry=Telemetry())
        results = manager.crawl(lab_urls(4), callbacks=[exploding])
        assert len(results) == 4
        assert results[1] is None
        assert [r is not None for r in results] == [
            True, False, True, True]
        rows = manager.storage.query("SELECT * FROM failed_visits")
        assert len(rows) == 1
        assert rows[0]["site_url"] == URLS[1]
        assert "RuntimeError" in rows[0]["reason"]
        assert manager.failed_sites == [URLS[1]]
        report = build_report(manager)
        assert report["reconciled"], report["reconciliation"]
        manager.close()


class TestEmptyPlanIsFree:
    def test_supervised_crawl_byte_identical_to_unsupervised(self,
                                                             tmp_path):
        """Acceptance pin: an empty fault plan plus an armed watchdog,
        circuit breaker, and crash-loop detector must not perturb the
        crawl database by a single byte — supervision observes, it
        never steers a healthy crawl."""
        import hashlib

        urls = lab_urls(30)

        def digest(path, **kwargs):
            manager = make_manager(path, crash_probability=0.1,
                                   **kwargs)
            manager.crawl(urls)
            manager.close()
            with open(path, "rb") as handle:
                return hashlib.sha256(handle.read()).hexdigest()

        plain = digest(str(tmp_path / "plain.sqlite"))
        supervised = digest(
            str(tmp_path / "supervised.sqlite"),
            fault_plan=FaultPlan(seed=3),
            stage_deadline=100.0, quarantine_after=10,
            crash_loop_threshold=50)
        assert plain == supervised


# ----------------------------------------------------------------------
# The chaos harness
# ----------------------------------------------------------------------
CHAOS_SEEDS = [7, 23]
if os.environ.get("REPRO_CHAOS_SEED"):
    CHAOS_SEEDS = sorted(
        set(CHAOS_SEEDS) | {int(os.environ["REPRO_CHAOS_SEED"])})


def random_fault_plan(seed, include_worker_death=False):
    """A randomized-but-seeded plan mixing every fault kind.

    Probabilities are kept moderate so most sites complete and the
    interesting paths (retry, abort, quarantine, terminal failure) all
    run in one 40-site crawl.
    """
    rng = random.Random(seed)
    rules = [
        FaultRule(fault="crash", point="visit.start",
                  probability=rng.uniform(0.05, 0.15)),
        FaultRule(fault="crash", point="visit.callbacks",
                  site=f"site-000{rng.randrange(10)}*",
                  probability=rng.uniform(0.3, 0.9)),
        FaultRule(fault="hang", point="visit.page_load",
                  probability=rng.uniform(0.02, 0.08),
                  seconds=rng.uniform(100.0, 400.0)),
        FaultRule(fault="connection_reset", point="network.fetch",
                  probability=rng.uniform(0.02, 0.08)),
        FaultRule(fault="slow_response", point="network.fetch",
                  probability=rng.uniform(0.02, 0.06),
                  seconds=rng.uniform(5.0, 20.0)),
        FaultRule(fault="truncated_body", point="network.fetch",
                  probability=rng.uniform(0.02, 0.10)),
        FaultRule(fault="storage_busy", point="storage.begin_visit",
                  probability=rng.uniform(0.02, 0.08)),
    ]
    if include_worker_death:
        rules.append(FaultRule(fault="worker_death", point="pool.lease",
                               probability=0.05))
    return FaultPlan(rules, seed=seed)


def assert_chaos_invariant(manager, queue_path, urls):
    """Every enqueued site ends exactly once, and the books balance."""
    from repro.obs.stats import build_crawl_report
    from repro.sched import JobQueue

    queue = JobQueue(queue_path)
    try:
        counts = queue.counts()
        assert counts["pending"] == 0 and counts["leased"] == 0
        completed = set(queue.sites(status="completed"))
        failed = set(queue.sites(status="failed"))
        # Exactly once: completed and failed partition the site list.
        assert completed | failed == set(urls)
        assert not completed & failed
        assert counts["completed"] + counts["failed"] == len(urls)

        visited = {row["site_url"] for row in manager.storage.query(
            "SELECT DISTINCT site_url FROM site_visits")}
        assert completed <= visited
        ledger = {row["site_url"] for row in manager.storage.query(
            "SELECT site_url FROM failed_visits")}
        ledger |= {row["site_url"] for row in manager.storage.query(
            "SELECT site_url FROM quarantined_sites")}
        assert failed <= ledger, sorted(failed - ledger)

        manager.storage.persist_telemetry(manager.telemetry.snapshot())
        report = build_crawl_report(manager.storage, queue=queue)
        assert report["reconciled"], [
            c for c in report["reconciliation"] if not c["ok"]]
        return report
    finally:
        queue.close()


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestChaosHarness:
    def test_invariant_holds_under_randomized_faults(self, seed,
                                                     tmp_path):
        urls = lab_urls(40)
        queue_path = str(tmp_path / "chaos.queue")
        plan = random_fault_plan(seed)
        manager = make_manager(browsers=2, seed=seed, fault_plan=plan,
                               telemetry=Telemetry(),
                               stage_deadline=50.0, quarantine_after=2,
                               crash_loop_threshold=5)
        # A huge lease keeps virtual-time burns from expiring healthy
        # workers' leases mid-visit (worker_death has its own test and
        # the single-worker chaos variant below).
        report = manager.crawl_scheduled(urls, workers=2,
                                         queue_path=queue_path,
                                         max_attempts=3,
                                         lease_seconds=1e9)
        assert report.drained
        assert plan.fire_count() > 0  # chaos actually happened
        assert_chaos_invariant(manager, queue_path, urls)
        manager.close()

    def test_invariant_holds_with_realistic_leases(self, seed,
                                                   tmp_path):
        """Multi-worker chaos under a production-sized lease: hangs
        burn the shared clock, so healthy workers' leases expire
        collaterally mid-visit. Late completions must win (or be
        discarded on a lost race) without duplicating any site."""
        urls = lab_urls(40)
        queue_path = str(tmp_path / "chaos-lease.queue")
        plan = random_fault_plan(seed)
        manager = make_manager(browsers=2, seed=seed, fault_plan=plan,
                               telemetry=Telemetry(),
                               stage_deadline=50.0, quarantine_after=2,
                               crash_loop_threshold=5)
        report = manager.crawl_scheduled(urls, workers=2,
                                         queue_path=queue_path,
                                         max_attempts=4,
                                         lease_seconds=300.0)
        assert report.drained
        assert plan.fire_count() > 0
        assert_chaos_invariant(manager, queue_path, urls)
        manager.close()

    def test_invariant_holds_with_worker_deaths(self, seed, tmp_path):
        urls = lab_urls(30)
        queue_path = str(tmp_path / "chaos-wd.queue")
        plan = random_fault_plan(seed, include_worker_death=True)
        manager = make_manager(browsers=1, seed=seed, fault_plan=plan,
                               telemetry=Telemetry(),
                               stage_deadline=50.0, quarantine_after=2)
        report = manager.crawl_scheduled(urls, workers=1,
                                         max_attempts=4,
                                         queue_path=queue_path,
                                         lease_seconds=500.0)
        assert report.drained
        assert_chaos_invariant(manager, queue_path, urls)
        manager.close()

    def test_invariant_holds_across_kill_and_resume(self, seed,
                                                    tmp_path):
        """The headline acceptance test: a chaos crawl killed mid-run
        and resumed over the same database + queue still accounts for
        every site exactly once."""
        from repro.obs.runner import run_telemetry_crawl

        urls = lab_urls(40)
        db_path = str(tmp_path / "chaos.sqlite")
        queue_path = str(tmp_path / "chaos.queue")

        def run(resume, stop_after=None):
            return run_telemetry_crawl(
                site_count=len(urls), seed=seed, urls=urls,
                database_path=db_path, crash_probability=0.0,
                browsers=2, workers=2, queue_path=queue_path,
                resume=resume, stop_after_jobs=stop_after,
                fault_plan=random_fault_plan(seed),
                stage_deadline=50.0, quarantine_after=2,
                max_attempts=3, lease_seconds=1e9)

        first = run(resume=False, stop_after=15)
        first.close()
        assert first.report.interrupted

        second = run(resume=True)
        assert second.report.drained
        assert_chaos_invariant(second.manager, queue_path, urls)
        second.close()
