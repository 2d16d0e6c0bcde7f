"""Settling a job attempt's outcome against the queue, in one place.

Every verdict a worker reaches — completed, sent back for retry,
terminally failed, or terminal because its lease expired — is booked
here, whether it comes from a pool thread or from a process broker
applying a shipped envelope:

* the queue transition (``complete``/``fail``), with a
  :class:`~repro.sched.jobs.LeaseError` mapped to the ``lost`` state:
  another worker owns the job now, so this attempt's verdict is void;
* the ``lease_complete|lease_fail|lease_lost`` journal events and the
  ``sched_jobs_*``/``sched_leases_lost`` counters ``repro stats``
  reconciles;
* one shared :class:`SettleTally` (the pool report, or a broker's).

Reclaim sweeps book through :func:`record_reclaim`, which hands each
job that went terminal back to the caller to settle as ``RECLAIMED``.
What the application records on its own side (visit rows, loss
ledgers, staged corpus rows) follows from the returned state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, List

from repro.sched.jobs import COMPLETED, FAILED, LeaseError, ReclaimResult

#: Attempt outcomes.
COMPLETE = "complete"
RETRY = "retry"
TERMINAL = "terminal"
#: Terminal without reaching a worker's ``fail``: the reclaim sweep
#: already moved the job to ``failed``.
RECLAIMED = "reclaimed"

#: Settled state of an attempt whose verdict a lost lease voided
#: (besides the queue's own ``completed``/``failed``/``pending``).
LOST = "lost"

#: The error a lease-expiry terminal carries.
LEASE_EXPIRED = "lease_expired"


@dataclass
class SettleTally:
    """Running totals of settled attempts (thread-safe via ``lock``)."""

    completed: int = 0
    failed: int = 0
    retried: int = 0
    #: complete/fail calls rejected because the lease had expired (the
    #: job was — or will be — re-run by another worker).
    lease_lost: int = 0
    #: ``"<url>: <error>"`` for every terminal failure.
    errors: List[str] = field(default_factory=list)
    lock: Any = field(default_factory=threading.Lock, repr=False,
                      compare=False)


def settle(queue: Any, telemetry: Any, tally: SettleTally, job_id: int,
           url: str, owner: str, outcome: str, error: str = "") -> str:
    """Book one attempt's *outcome*; returns the settled state:
    ``completed``, ``failed``, ``pending`` (retry) or :data:`LOST`."""
    metrics = telemetry.metrics
    journal = telemetry.journal
    try:
        if outcome == COMPLETE:
            queue.complete(job_id, owner)
            state = COMPLETED
        elif outcome == RECLAIMED:
            state = FAILED
        else:
            state = queue.fail(job_id, owner, error,
                               retry=outcome == RETRY)
    except LeaseError:
        metrics.counter("sched_leases_lost").inc()
        journal.emit("lease_lost", job_id=job_id, url=url)
        with tally.lock:
            tally.lease_lost += 1
        return LOST
    if state == COMPLETED:
        metrics.counter("sched_jobs_completed").inc()
        journal.emit("lease_complete", job_id=job_id, url=url)
        with tally.lock:
            tally.completed += 1
        return state
    journal.emit("lease_fail", job_id=job_id, url=url, state=state,
                 error=error)
    if state == FAILED:
        metrics.counter("sched_jobs_failed").inc()
        with tally.lock:
            tally.failed += 1
            tally.errors.append(f"{url}: {error}")
    else:
        metrics.counter("sched_jobs_retried").inc()
        with tally.lock:
            tally.retried += 1
    return state


def record_reclaim(telemetry: Any, owner: str, reclaim: ReclaimResult,
                   settle_expired: Callable[[Any], Any]) -> int:
    """Book one reclaim sweep (expired leases, or a dead worker's
    released ones); returns how many leases it took back.

    A reclaimed job with no attempts left went terminal without ever
    reaching a worker's ``fail``: ``settle_expired(job)`` must settle
    it as :data:`RECLAIMED`, or the site would vanish from the books.
    """
    if not reclaim:
        return 0
    telemetry.metrics.counter("sched_lease_reclaims").inc(reclaim.total)
    telemetry.journal.emit("lease_reclaim", owner=owner,
                           count=reclaim.total)
    for job in reclaim.failed_jobs:
        telemetry.journal.emit("lease_expired_terminal",
                               job_id=job.job_id, url=job.site_url)
        settle_expired(job)
    return reclaim.total
