"""Settling a job attempt's outcome against the queue, in one place.

Every verdict a worker reaches — completed, sent back for retry, or
terminally failed — is booked here, whether it comes from a pool
thread or from a process broker applying a shipped envelope, and so is
each lease-expiry terminal a reclaim sweep finds:

* the queue transition (``complete``/``fail``), with a
  :class:`~repro.sched.jobs.LeaseError` mapped to the ``lost`` state:
  another worker owns the job now, so this attempt's verdict is void;
* the ``lease_complete|lease_fail|lease_lost`` journal events and the
  ``sched_jobs_*``/``sched_leases_lost`` counters ``repro stats``
  reconciles;
* one shared :class:`SettleTally` (the pool report, or a broker's).

Reclaim sweeps book through :func:`record_reclaim`, which hands each
job the sweep held out of attempts to the caller as a ``terminal``
resolution; settling it fails the job like any other terminal, so its
ledger row is staged inside the queue transition.

A :class:`Broker` is what both pools hand every resolution to. It
settles final verdicts in strict job-id order and is the one place an
application's records reach its store: ``_stage(message, state)`` runs
inside the queue transition, after the lease check passed and before
it commits, so a voided (``lost``) attempt never stages anything;
``_settled(message, state, staged)`` runs after it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.telemetry import coalesce
from repro.sched.jobs import (
    COMPLETED,
    FAILED,
    JobQueue,
    LeaseError,
    ReclaimResult,
)

#: Attempt outcomes.
COMPLETE = "complete"
RETRY = "retry"
TERMINAL = "terminal"

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
           url: str, owner: str, outcome: str, error: str = "",
           stage: Optional[Callable[[str], Any]] = None) -> str:
    """Book one attempt's *outcome*; returns the settled state:
    ``completed``, ``failed``, ``pending`` (retry) or :data:`LOST`.

    ``stage(state)`` runs once the verdict is known to stand, before
    the queue commits it (never for a lost attempt)."""
    metrics = telemetry.metrics
    journal = telemetry.journal
    try:
        if outcome == COMPLETE:
            queue.complete(job_id, owner, stage=stage)
            state = COMPLETED
        else:
            state = queue.fail(job_id, owner, error,
                               retry=outcome == RETRY, stage=stage)
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
                   hand_over: Callable[[Dict[str, Any]], Any]) -> int:
    """Book one reclaim sweep (expired leases, or a dead worker's
    released ones); returns how many leases it took back.

    A reclaimed job with no attempts left is held, still leased, for
    its terminal: ``hand_over`` gets its ``lease_expired`` resolution
    (a broker's ``handle_resolution``), or the site would stay leased
    until ``--resume``.
    """
    if not reclaim:
        return 0
    telemetry.metrics.counter("sched_lease_reclaims").inc(reclaim.total)
    telemetry.journal.emit("lease_reclaim", owner=owner,
                           count=reclaim.total)
    for job in reclaim.exhausted_jobs:
        telemetry.journal.emit("lease_expired_terminal",
                               job_id=job.job_id, url=job.site_url)
        hand_over({"job_id": job.job_id, "site_url": job.site_url,
                   "owner": job.lease_owner, "attempts": job.attempts,
                   "kind": TERMINAL, "error": LEASE_EXPIRED})
    return reclaim.total


# ----------------------------------------------------------------------
# Ordered settling: the brokers
# ----------------------------------------------------------------------
class _Finalizer:
    """Applies *final* job resolutions in strict job-id order.

    The broker's guarantee that a clean N-worker crawl produces the
    same ids and row order as the inline path: a final for job J waits
    until every job with a smaller id is finalized (applied, terminal
    at startup for resumes, or terminal out-of-band through retry
    exhaustion). A waiting final holds its job's lease
    (:meth:`JobQueue.hold`) so no reclaim takes the job meanwhile.
    Apply callables return True when the job is settled, False when
    its verdict was voided by a lost lease (the re-run will produce
    another final)."""

    def __init__(self, queue: JobQueue) -> None:
        self.queue = queue
        self.finalized: set = set()
        #: Job ids in settling order. Not contiguous: an enqueue that
        #: ignores a known site still consumes an AUTOINCREMENT id.
        self.order: List[int] = []
        for row in queue.job_rows():
            self.order.append(int(row["job_id"]))
            if row["status"] in (COMPLETED, FAILED):
                self.finalized.add(int(row["job_id"]))
        self.known = set(self.order)
        self.position = 0
        self.cursor: Optional[int] = None
        #: job_id -> list of (owner, apply_fn) awaiting their turn.
        self.buffer: Dict[int, List[Tuple[str, Callable[[], bool]]]] = {}
        self._advance()

    def _advance(self) -> None:
        while self.position < len(self.order) \
                and self.order[self.position] in self.finalized:
            self.position += 1
        self.cursor = self.order[self.position] \
            if self.position < len(self.order) else None

    def mark_terminal(self, job_id: int) -> None:
        """A job went terminal outside the ordered path (immediate
        retry exhaustion) — unblock the cursor."""
        self._finalize(job_id)
        self._drain()

    def submit(self, job_id: int, owner: str,
               apply_fn: Callable[[], bool]) -> None:
        if job_id in self.finalized or job_id not in self.known:
            # A voided attempt of a settled job (dropped now), or a job
            # enqueued after the run began (no order to keep).
            if apply_fn():
                self.finalized.add(job_id)
            return
        if job_id != self.cursor and owner:
            self.queue.hold(job_id, owner)
        self.buffer.setdefault(job_id, []).append((owner, apply_fn))
        self._drain()

    def _finalize(self, job_id: int) -> None:
        self.finalized.add(job_id)
        for _owner, apply_fn in self.buffer.pop(job_id, []):
            apply_fn()  # voided by the final that just settled the job
        self._advance()

    def _drain(self) -> None:
        while self.cursor in self.buffer:
            job_id = self.cursor
            _owner, apply_fn = self.buffer[job_id].pop(0)
            if not self.buffer[job_id]:
                del self.buffer[job_id]
            if apply_fn():
                self._finalize(job_id)
            # else voided; a later final (maybe already here) settles it

    def force_owner(self, owner: str) -> None:
        """Apply a dead worker's buffered finals out of order (its pipe
        is drained, nothing more is coming; they must land before its
        leases are released or the release would void them)."""
        for job_id in sorted(self.buffer):
            entries = self.buffer.get(job_id, [])
            mine = [apply_fn for entry_owner, apply_fn in entries
                    if entry_owner == owner]
            if not mine:
                continue
            rest = [entry for entry in entries if entry[0] != owner]
            if rest:
                self.buffer[job_id] = rest
            else:
                del self.buffer[job_id]
            for apply_fn in mine:
                if apply_fn() and job_id not in self.finalized:
                    self._finalize(job_id)
        self._drain()

    def flush(self) -> None:
        """Apply everything left, in job-id order (stop/abort path —
        jobs in cursor gaps stay unresolved and resume re-runs them)."""
        for job_id in sorted(self.buffer):
            for _owner, apply_fn in self.buffer.pop(job_id, []):
                if apply_fn():
                    self.finalized.add(job_id)
        self._advance()


class Broker:
    """Settles resolutions against the queue, finals in job-id order.

    A resolution is a message: ``job_id``, ``site_url``, ``owner``,
    ``attempts``, ``kind`` (an attempt outcome) and ``error``, plus
    whatever payload the worker shipped. Thread pools call it from
    their worker threads, the process pool from its coordinator loop;
    one lock serialises them, so a broker is the single writer of
    whatever its subclass stages. Subclasses define ``_stage`` and
    ``_settled`` (see the module docstring); this base stages nothing.
    """

    def __init__(self, queue: JobQueue, telemetry: Any) -> None:
        self.queue = queue
        self.tm = coalesce(telemetry)
        self.finalizer = _Finalizer(queue)
        self.tally = SettleTally()
        self.lock = threading.RLock()

    def handle_resolution(self, message: Dict[str, Any]) -> None:
        with self.lock:
            if message["kind"] != RETRY:
                self.finalizer.submit(
                    message["job_id"], message["owner"],
                    lambda: self._apply(message) != LOST)
            elif self._apply(message) == FAILED:
                # Retry exhaustion: terminal outside the ordered path.
                self.finalizer.mark_terminal(message["job_id"])

    def force_owner(self, owner: str) -> None:
        with self.lock:
            self.finalizer.force_owner(owner)

    def flush(self) -> None:
        with self.lock:
            self.finalizer.flush()

    def _apply(self, message: Dict[str, Any]) -> str:
        staged: List[Any] = []
        state = settle(self.queue, self.tm, self.tally, message["job_id"],
                       message["site_url"], message["owner"],
                       message["kind"], message["error"],
                       stage=lambda state: staged.append(
                           self._stage(message, state)))
        self._settled(message, state, staged[0] if staged else None)
        return state

    def _stage(self, message: Dict[str, Any], state: str) -> Any:
        return None

    def _settled(self, message: Dict[str, Any], state: str,
                 staged: Any) -> None:
        return None
