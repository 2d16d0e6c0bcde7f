"""The one settle routine (``repro.sched.settle``) and the crawl ledger
rules every settled attempt runs through
(``repro.openwpm.task_manager.visit_ledger_ops``)."""

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import Telemetry
from repro.openwpm.task_manager import (
    CLOSE_BREAKER,
    DROP,
    GIVE_UP,
    QUARANTINE,
    WRITE,
    visit_ledger_ops,
)
from repro.sched import COMPLETED, FAILED, PENDING, JobQueue, WorkerPool
from repro.sched.settle import (
    COMPLETE,
    LOST,
    RECLAIMED,
    RETRY,
    TERMINAL,
    SettleTally,
    record_reclaim,
    settle,
)

URL = "https://site.test/"


def claimed_queue(max_attempts=2):
    queue = JobQueue(max_attempts=max_attempts, backoff_base=0.0)
    queue.enqueue([URL])
    return queue, queue.claim("w0")


class TestSettle:
    def test_each_outcome_books_its_state(self):
        telemetry = Telemetry()
        tally = SettleTally()
        queue, job = claimed_queue()
        assert settle(queue, telemetry, tally, job.job_id, URL, "w0",
                      RETRY, "boom") == PENDING
        job = queue.claim("w0")
        assert settle(queue, telemetry, tally, job.job_id, URL, "w0",
                      TERMINAL, "nope") == FAILED
        queue, job = claimed_queue()
        assert settle(queue, telemetry, tally, job.job_id, URL, "w0",
                      COMPLETE) == COMPLETED
        # The queue owns the job now: any further verdict is void.
        assert settle(queue, telemetry, tally, job.job_id, URL, "w0",
                      COMPLETE) == LOST
        assert (tally.completed, tally.failed, tally.retried,
                tally.lease_lost) == (1, 1, 1, 1)
        assert tally.errors == [f"{URL}: nope"]
        metrics = telemetry.metrics
        for name in ("sched_jobs_completed", "sched_jobs_failed",
                     "sched_jobs_retried", "sched_leases_lost"):
            assert metrics.counter_value(name) == 1, name

    def test_reclaimed_terminal_is_booked_once_without_a_queue_call(self):
        telemetry = Telemetry()
        tally = SettleTally()
        queue = JobQueue(max_attempts=1, lease_seconds=1.0,
                         clock=telemetry.clock)
        queue.enqueue([URL])
        queue.claim("dead")
        telemetry.clock.advance(5.0)
        settled = []
        reclaimed = record_reclaim(
            telemetry, "w1", queue.reclaim_expired(),
            lambda job: settled.append(settle(
                queue, telemetry, tally, job.job_id, job.site_url, "",
                RECLAIMED, "lease_expired")))
        assert reclaimed == 1
        assert settled == [FAILED]
        assert tally.failed == 1
        assert tally.errors == [f"{URL}: lease_expired"]
        assert queue.counts()[FAILED] == 1
        assert telemetry.metrics.counter_value("sched_lease_reclaims") == 1
        # Nothing to sweep: nothing booked.
        assert record_reclaim(telemetry, "w1", queue.reclaim_expired(),
                              settled.append) == 0


    def test_shared_tally_survives_contending_workers(self):
        """Eight pool threads settle into one tally: a lost update
        would break the totals the queue and the counters agree on."""
        queue = JobQueue(max_attempts=2, backoff_base=0.0)
        queue.enqueue([f"https://s{i}.test/" for i in range(120)])
        telemetry = Telemetry()

        def handler(job, index):
            if job.job_id % 3 == 0:
                raise RuntimeError("flaky")

        pool = WorkerPool(queue, handler, workers=8, telemetry=telemetry)
        reports = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: reports.append(pool.run()))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not runner.is_alive()
        report = reports[0]
        assert (report.completed, report.failed, report.retried) \
            == (80, 40, 40)
        assert len(report.errors) == 40
        assert queue.counts()[COMPLETED] == 80
        metrics = telemetry.metrics
        assert metrics.counter_value("sched_jobs_completed") == 80
        assert metrics.counter_value("sched_jobs_failed") == 40


# ----------------------------------------------------------------------
# The ledger rules, over every outcome x settled state x attempt record
# ----------------------------------------------------------------------
#: outcome -> the states settling it can end in.
STATES = {COMPLETE: (COMPLETED, LOST), RETRY: (PENDING, FAILED, LOST),
          TERMINAL: (FAILED, LOST), RECLAIMED: (FAILED,)}


def worlds():
    """Every consistent (outcome, state, committed, gave_up,
    quarantined, completed_elsewhere) combination."""
    for outcome, states in STATES.items():
        for state, gave_up, quarantined, elsewhere in itertools.product(
                states, (False, True), (False, True), (False, True)):
            if gave_up and outcome != TERMINAL:
                continue  # only a handler's give-up is terminal
            if elsewhere and state != LOST:
                continue  # a job settled by us is not settled elsewhere
            yield (outcome, state, outcome == COMPLETE, gave_up,
                   quarantined, elsewhere)


WORLDS = list(worlds())


@pytest.mark.parametrize(
    "world", WORLDS,
    ids=["-".join(str(part) for part in world) for world in WORLDS])
@settings(max_examples=20, deadline=None)
@given(residue=st.integers(min_value=0, max_value=3),
       tripped=st.booleans())
def test_ledger_ops_settle_every_site_exactly_once(world, residue,
                                                   tripped):
    outcome, state, committed, gave_up, quarantined, elsewhere = world
    if outcome == RECLAIMED:
        residue = 0  # no attempt of ours ran
    # A trip ends the attempt as terminal, and gives nothing up; the
    # breaker it opened stays open unless the job completed elsewhere.
    tripped = tripped and outcome == TERMINAL and not gave_up \
        and (quarantined or state == LOST)
    # The database before this attempt settles: another worker's
    # completed copy (id 0), if the job was completed elsewhere.
    visits = {0: True} if elsewhere else {}
    failed_rows = quarantine_rows = 0
    breaker_open = quarantined

    ops = visit_ledger_ops(state, "boom", gave_up, tripped, quarantined,
                           elsewhere)
    assert ops[0] == ((DROP, None) if state == LOST else (WRITE, None))
    for op, arg in ops:
        if op == WRITE:
            # The envelope: crashed partial visits, the committed one,
            # and the ledger row the attempt itself wrote.
            visits.update({visit_id: committed and visit_id == residue + 1
                           for visit_id in range(1, residue + 1
                                                 + committed)})
            failed_rows += gave_up
            quarantine_rows += tripped
        elif op == GIVE_UP:
            assert arg == "boom"
            failed_rows += 1
        elif op == QUARANTINE:
            quarantine_rows = 1  # INSERT OR IGNORE
        elif op == CLOSE_BREAKER:
            breaker_open = False
        else:
            assert op == DROP

    if state == PENDING:
        assert ops == [(WRITE, None)]  # the re-run settles the site
        assert failed_rows == quarantine_rows == 0
        return
    if state == LOST:
        # Nothing of a voided attempt ever reaches the database.
        assert set(visits) <= {0}
        assert failed_rows == quarantine_rows == 0
        if not elsewhere:
            return  # the live worker's verdict settles the site
    else:
        # A breaker left open on a completed site would refuse it.
        assert breaker_open == (quarantined and state != COMPLETED)
    entries = [any(visits.values()), failed_rows > 0, quarantine_rows > 0]
    assert entries.count(True) == 1, (world, ops)
    assert failed_rows <= 1
