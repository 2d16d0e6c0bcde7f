"""Unit tests for the crawl scheduler: queue, pool, orchestration."""

import threading

import pytest

from repro.sched import (
    COMPLETED,
    FAILED,
    LEASED,
    LOST,
    PENDING,
    Broker,
    CrawlScheduler,
    JobFailed,
    JobQueue,
    LeaseError,
    WorkerPool,
    jitter_fraction,
)
from repro.sched.jobs import RECLAIM_OWNER

SITES = [f"https://site-{i}.test/" for i in range(6)]


class TestJitter:
    def test_deterministic(self):
        a = jitter_fraction(7, "https://x.test/", 1)
        b = jitter_fraction(7, "https://x.test/", 1)
        assert a == b

    def test_varies_with_inputs(self):
        base = jitter_fraction(7, "https://x.test/", 1)
        assert jitter_fraction(8, "https://x.test/", 1) != base
        assert jitter_fraction(7, "https://y.test/", 1) != base
        assert jitter_fraction(7, "https://x.test/", 2) != base

    def test_in_unit_interval(self):
        for attempt in range(1, 10):
            frac = jitter_fraction(3, "https://x.test/", attempt)
            assert 0.0 <= frac < 1.0


class TestJobQueue:
    def test_enqueue_is_idempotent(self):
        queue = JobQueue()
        assert queue.enqueue(SITES) == len(SITES)
        assert queue.enqueue(SITES) == 0
        assert queue.counts()[PENDING] == len(SITES)

    def test_claim_in_enqueue_order(self):
        queue = JobQueue()
        queue.enqueue(SITES)
        claimed = [queue.claim("w").site_url for _ in SITES]
        assert claimed == SITES

    def test_claim_consumes_attempt_and_leases(self):
        queue = JobQueue()
        queue.enqueue(SITES[:1])
        job = queue.claim("w0")
        assert job.attempts == 1
        assert job.lease_owner == "w0"
        assert queue.counts()[LEASED] == 1
        assert queue.claim("w1") is None  # nothing else ready

    def test_complete_requires_lease(self):
        queue = JobQueue()
        queue.enqueue(SITES[:1])
        job = queue.claim("w0")
        with pytest.raises(LeaseError):
            queue.complete(job.job_id, "impostor")
        queue.complete(job.job_id, "w0")
        assert queue.counts()[COMPLETED] == 1
        with pytest.raises(LeaseError):  # lease is gone now
            queue.complete(job.job_id, "w0")

    def test_fail_requeues_with_backoff(self):
        queue = JobQueue(seed=7, max_attempts=3, backoff_base=0.5)
        queue.enqueue(SITES[:1])
        job = queue.claim("w0")
        assert queue.fail(job.job_id, "w0", "boom") == PENDING
        # Backed off: not claimable now, claimable after the delay.
        assert queue.claim("w0") is None
        hint = queue.next_ready_in()
        expected = queue.retry_delay(job.site_url, 1)
        assert hint == pytest.approx(expected, abs=queue.clock._tick * 4)
        queue.clock.advance(hint + 1.0)
        assert queue.claim("w0") is not None

    def test_fail_terminal_after_max_attempts(self):
        queue = JobQueue(max_attempts=2)
        queue.enqueue(SITES[:1])
        job = queue.claim("w0")
        assert queue.fail(job.job_id, "w0", "x") == PENDING
        queue.clock.advance(120.0)
        job = queue.claim("w0")
        assert job.attempts == 2
        assert queue.fail(job.job_id, "w0", "x") == FAILED
        assert queue.counts()[FAILED] == 1

    def test_fail_no_retry_is_terminal(self):
        queue = JobQueue(max_attempts=3)
        queue.enqueue(SITES[:1])
        job = queue.claim("w0")
        assert queue.fail(job.job_id, "w0", "x", retry=False) == FAILED

    def test_retry_delay_deterministic_and_capped(self):
        queue = JobQueue(seed=5, backoff_base=0.5, backoff_cap=4.0)
        d1 = queue.retry_delay("https://x.test/", 1)
        assert d1 == queue.retry_delay("https://x.test/", 1)
        assert 0.5 <= d1 < 1.0
        # Exponential growth capped at backoff_cap (pre-jitter).
        d9 = queue.retry_delay("https://x.test/", 9)
        assert 4.0 <= d9 < 8.0

    def test_reclaim_expired_lease(self):
        queue = JobQueue(lease_seconds=10.0, max_attempts=3)
        queue.enqueue(SITES[:1])
        queue.claim("dead-worker")
        assert queue.reclaim_expired().total == 0  # lease still fresh
        queue.clock.advance(11.0)
        reclaim = queue.reclaim_expired()
        assert reclaim.total == 1
        assert reclaim.requeued == 1 and not reclaim.exhausted_jobs
        assert queue.counts()[PENDING] == 1
        row = queue.job_rows()[0]
        assert row["last_error"] == "lease_expired"

    def test_reclaim_expired_exhausted_goes_terminal(self):
        """An exhausted lease is held for its terminal, not committed
        ``failed``: the caller's ``fail`` commits it with the ledger
        row it stages."""
        queue = JobQueue(lease_seconds=10.0, max_attempts=1)
        queue.enqueue(SITES[:1])
        queue.claim("dead-worker")
        queue.clock.advance(11.0)
        reclaim = queue.reclaim_expired()
        assert reclaim.total == 1
        [job] = reclaim.exhausted_jobs
        assert job.site_url == SITES[0]
        assert job.lease_owner == RECLAIM_OWNER
        row = queue.job_rows()[0]
        assert (row["status"], row["lease_owner"], row["lease_expires_at"],
                row["last_error"]) == (LEASED, RECLAIM_OWNER, None,
                                       "lease_expired")
        queue.clock.advance(1e6)
        assert queue.reclaim_expired().total == 0  # held: no expiry
        assert queue.fail(job.job_id, job.lease_owner, "lease_expired",
                          retry=False) == FAILED
        assert queue.counts()[FAILED] == 1

    def test_release_leases_ignores_expiry(self):
        queue = JobQueue(lease_seconds=1e9)
        queue.enqueue(SITES[:2])
        queue.claim("w0")
        queue.claim("w1")
        assert queue.release_leases() == 2
        assert queue.counts()[PENDING] == 2

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        queue = JobQueue(path)
        queue.enqueue(SITES)
        job = queue.claim("w0")
        queue.complete(job.job_id, "w0")
        queue.close()

        reopened = JobQueue(path)
        counts = reopened.counts()
        assert counts[COMPLETED] == 1
        assert counts[PENDING] == len(SITES) - 1
        assert reopened.enqueue(SITES) == 0  # still idempotent
        assert reopened.sites(status=COMPLETED) == [SITES[0]]
        reopened.close()

    def test_thread_safe_claims_are_exclusive(self):
        queue = JobQueue()
        queue.enqueue([f"https://s{i}.test/" for i in range(40)])
        seen, errors = [], []

        def worker(name):
            while True:
                job = queue.claim(name)
                if job is None:
                    return
                seen.append(job.site_url)
                try:
                    queue.complete(job.job_id, name)
                except LeaseError as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(f"w{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(seen) == 40
        assert len(set(seen)) == 40  # no double-claims


class TestAdvanceIfIdle:
    def test_advances_to_next_retry_when_idle(self):
        queue = JobQueue(max_attempts=3, backoff_base=0.5)
        queue.enqueue(SITES[:1])
        job = queue.claim("w0")
        queue.fail(job.job_id, "w0", "boom", retry=True)
        assert queue.next_ready_in() > 0
        assert queue.advance_if_idle()
        assert queue.next_ready_in() == 0.0
        assert queue.claim("w0") is not None

    def test_refuses_while_a_lease_is_live(self):
        queue = JobQueue(max_attempts=3, backoff_base=0.5)
        queue.enqueue(SITES[:2])
        queue.claim("w0")  # live lease
        backing_off = queue.claim("w1")
        queue.fail(backing_off.job_id, "w1", "boom", retry=True)
        before = queue.clock.peek()
        assert not queue.advance_if_idle()
        assert queue.clock.peek() == before

    def test_refuses_when_nothing_is_waiting(self):
        queue = JobQueue()
        queue.enqueue(SITES[:1])  # ready now, not backing off
        before = queue.clock.peek()
        assert not queue.advance_if_idle()
        assert queue.clock.peek() == before

    def test_wall_clock_reports_no_motion(self):
        from repro.obs.clock import WallClock

        queue = JobQueue(max_attempts=3, backoff_base=30.0,
                         clock=WallClock())
        queue.enqueue(SITES[:1])
        job = queue.claim("w0")
        queue.fail(job.job_id, "w0", "boom", retry=True)
        # Real time cannot be jumped: the caller must fall back to a
        # real sleep instead of spinning on no-op advances.
        assert queue.advance_if_idle() is False


class TestWorkerPool:
    def test_single_worker_runs_inline(self):
        queue = JobQueue()
        queue.enqueue(SITES)
        thread_ids = []

        def handler(job, index):
            thread_ids.append(threading.get_ident())

        report = WorkerPool(queue, handler, workers=1).run()
        assert report.completed == len(SITES)
        assert set(thread_ids) == {threading.get_ident()}

    def test_multi_worker_drains_everything(self):
        queue = JobQueue()
        sites = [f"https://s{i}.test/" for i in range(30)]
        queue.enqueue(sites)
        done = []
        lock = threading.Lock()

        def handler(job, index):
            with lock:
                done.append(job.site_url)

        report = WorkerPool(queue, handler, workers=4).run()
        assert report.completed == 30
        assert sorted(done) == sorted(sites)
        assert queue.counts()[COMPLETED] == 30

    def test_jobfailed_terminal(self):
        queue = JobQueue(max_attempts=3)
        queue.enqueue(SITES[:1])

        def handler(job, index):
            raise JobFailed("failure_limit", retry=False)

        report = WorkerPool(queue, handler, workers=1).run()
        assert report.failed == 1
        assert report.retried == 0
        assert queue.counts()[FAILED] == 1

    def test_unexpected_exception_retries_then_fails(self):
        queue = JobQueue(max_attempts=3, backoff_base=0.01)
        queue.enqueue(SITES[:1])
        calls = []

        def handler(job, index):
            calls.append(job.attempts)
            raise RuntimeError("transient")

        report = WorkerPool(queue, handler, workers=1).run()
        assert calls == [1, 2, 3]
        assert report.retried == 2
        assert report.failed == 1
        assert queue.counts()[FAILED] == 1

    def test_handler_recovers_on_retry(self):
        queue = JobQueue(max_attempts=3, backoff_base=0.01)
        queue.enqueue(SITES[:1])

        def handler(job, index):
            if job.attempts == 1:
                raise RuntimeError("transient")

        report = WorkerPool(queue, handler, workers=1).run()
        assert report.retried == 1
        assert report.completed == 1
        assert queue.counts()[COMPLETED] == 1

    def test_stop_after_jobs_leaves_remainder_pending(self):
        queue = JobQueue()
        queue.enqueue(SITES)

        report = WorkerPool(queue, lambda job, index: None,
                            workers=1).run(stop_after_jobs=2)
        assert report.completed == 2
        assert report.interrupted
        assert queue.counts()[PENDING] == len(SITES) - 2

    def test_broker_settles_once_per_attempt(self):
        queue = JobQueue(max_attempts=2, backoff_base=0.01)
        queue.enqueue(SITES[:1])
        seen = []

        class Recording(Broker):
            def _settled(self, message, state, staged):
                seen.append((message["site_url"], state, message["error"]))

        def handler(job, index):
            raise RuntimeError("boom")

        report = WorkerPool(queue, handler, workers=1,
                            broker=Recording(queue, None)).run()
        assert report.retried == 1
        assert report.failed == 1
        # One call per settled attempt: the retry, then the terminal.
        assert [state for _, state, _ in seen] == [PENDING, FAILED]
        assert all(url == SITES[0] and "boom" in error
                   for url, _, error in seen)
        assert report.errors == [f"{SITES[0]}: {seen[-1][2]}"]

    @pytest.mark.parametrize("state", [COMPLETED, FAILED, LOST])
    def test_broker_errors_stop_the_pool(self, state):
        queue = JobQueue(max_attempts=2)
        queue.enqueue(SITES[:2])
        stolen = []

        def handler(job, index):
            if state == FAILED:
                raise JobFailed("nope", retry=False)
            if state == LOST and not stolen:
                # Hand the lease to an intruder, already expired: this
                # worker's completion loses.
                stolen.append(job.job_id)
                with queue._lock:
                    queue._conn.execute(
                        "UPDATE jobs SET lease_owner = 'intruder', "
                        "lease_expires_at = -1 WHERE job_id = ?",
                        (job.job_id,))
                    queue._conn.commit()

        class Failing(Broker):
            def _stage(self, message, settled):
                if settled == state:
                    raise ValueError("ledger write blew up")

            def _settled(self, message, settled, staged):
                if settled == state:
                    raise ValueError("ledger write blew up")

        report = WorkerPool(queue, handler, workers=1,
                            broker=Failing(queue, None)).run()
        # A broken broker must not kill the worker loop: the pool stops
        # and the job it could not settle stays leased for --resume.
        assert report.interrupted
        assert any("ledger write blew up" in e for e in report.errors)
        assert queue.counts()[LEASED] == 1
        assert report.completed + report.failed == 0
        assert report.lease_lost == (1 if state == LOST else 0)

    def test_worker_indexes_within_bounds(self):
        queue = JobQueue()
        queue.enqueue([f"https://s{i}.test/" for i in range(20)])
        indexes = set()
        lock = threading.Lock()

        def handler(job, index):
            with lock:
                indexes.add(index)

        WorkerPool(queue, handler, workers=3).run()
        assert indexes <= {0, 1, 2}


class TestCrawlScheduler:
    def test_fresh_run_drains(self):
        scheduler = CrawlScheduler(seed=1)
        scheduler.enqueue(SITES)
        report = scheduler.run(lambda job, index: None, workers=2)
        assert report.completed == len(SITES)
        assert report.drained
        assert report.enqueued_new == len(SITES)
        scheduler.close()

    def test_resume_requires_file_queue(self):
        with pytest.raises(ValueError):
            CrawlScheduler(resume=True)

    def test_fresh_run_clears_previous_queue(self, tmp_path):
        path = str(tmp_path / "queue.sqlite")
        first = CrawlScheduler(path, seed=1)
        first.enqueue(SITES)
        first.run(lambda job, index: None, workers=1,
                  stop_after_jobs=2)
        first.close()

        fresh = CrawlScheduler(path, seed=1)  # resume=False drops state
        fresh.enqueue(SITES[:3])
        assert fresh.queue.counts()[PENDING] == 3
        fresh.close()

    def test_resume_skips_completed_and_releases_leases(self, tmp_path):
        path = str(tmp_path / "queue.sqlite")
        first = CrawlScheduler(path, seed=1)
        first.enqueue(SITES)
        first.run(lambda job, index: None, workers=1, stop_after_jobs=2)
        # Simulate a crash mid-lease: leave one site leased on disk.
        first.queue.claim("dead-worker")
        first.queue.close()

        resumed = CrawlScheduler(path, resume=True, seed=1)
        assert resumed._released == 1
        assert resumed.enqueue(SITES) == 0  # idempotent re-enqueue
        visited = []
        report = resumed.run(
            lambda job, index: visited.append(job.site_url), workers=1)
        assert report.drained
        # Exactly the sites the first run did not complete, in order.
        assert visited == SITES[2:]
        resumed.close()
