"""Worker pool draining a :class:`~repro.sched.jobs.JobQueue`.

Each worker owns one application slot (a browser, for crawls) and runs
claim → handle → settle until the queue drains or a stop is
requested. Design points:

* **Single-worker runs are inline.** With ``workers == 1`` the loop
  runs in the calling thread — no thread at all — so a 1-worker
  scheduled crawl executes the exact same Python statements in the
  exact same order as a plain sequential loop (the determinism the
  byte-identical-database test pins down).
* **Graceful shutdown.** :meth:`request_stop` lets in-flight jobs
  finish; unclaimed jobs stay ``pending`` for a later ``--resume``.
  ``KeyboardInterrupt`` in the coordinating thread triggers the same
  path.
* **Crash-safe leases.** Before claiming, workers reclaim expired
  leases, so a site stranded by a dead worker is re-run by a live one.
* **One settle path.** Every outcome — the handler's resolution and
  each lease-expiry terminal a reclaim sweep finds — goes to a
  :class:`~repro.sched.settle.Broker`, exactly as the process pool's
  workers ship theirs: finals settle in job-id order, and the broker
  is the only place the application's records reach its store.
* **Virtual time.** When every runnable job is backing off and no
  leases are outstanding, the pool advances the (virtual) clock to the
  next retry time instead of spinning; with a real clock the advance is
  a no-op and a short nap paces the poll.

Telemetry: ``sched_workers_busy`` / ``sched_queue_depth{state=…}``
gauges, ``queue_wait_seconds`` / ``lease_duration_seconds`` histograms,
and ``sched_jobs_*`` counters — all reconciled by ``repro stats``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.obs.telemetry import Telemetry, coalesce
from repro.sched.jobs import Job, JobQueue
from repro.sched.settle import (
    COMPLETE,
    RETRY,
    TERMINAL,
    Broker,
    SettleTally,
    record_reclaim,
)

#: handler(job, worker_index) -> resolution. Return None, or a dict
#: payload for the broker (it may set its own ``kind`` and ``error``;
#: the default is a completion). Raise to fail the job:
#: :class:`JobFailed` controls retry explicitly; any other exception is
#: treated as a transient worker fault and retried with backoff.
JobHandler = Callable[[Job, int], Optional[Dict[str, Any]]]


class JobFailed(RuntimeError):
    """Raised by a handler to fail the current job.

    ``retry=False`` marks the job terminally failed (the handler has
    already exhausted its own retry budget); ``retry=True`` sends it
    back through the queue's backoff machinery.
    """

    def __init__(self, reason: str, retry: bool = False) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry = retry


@dataclass
class PoolReport(SettleTally):
    """What one :meth:`WorkerPool.run` call did."""

    workers: int = 0
    claims: int = 0
    reclaimed: int = 0
    #: Injected ``worker_death`` faults: claims abandoned mid-lease.
    worker_deaths: int = 0
    interrupted: bool = False


class WorkerPool:
    """Runs *handler* over the queue with N lease-claiming workers."""

    def __init__(self, queue: JobQueue, handler: JobHandler,
                 workers: int = 1,
                 telemetry: Optional[Telemetry] = None,
                 poll_seconds: float = 0.005,
                 name: str = "worker",
                 broker: Optional[Broker] = None,
                 fault_plan: Optional[Any] = None
                 ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.queue = queue
        self.handler = handler
        self.workers = workers
        self.telemetry = coalesce(telemetry)
        self.poll_seconds = poll_seconds
        self.name = name
        self.broker = broker if broker is not None \
            else Broker(queue, self.telemetry)
        self.fault_plan = fault_plan
        if fault_plan is not None and fault_plan.clock is None:
            fault_plan.bind_clock(queue.clock)
        self._stop = threading.Event()
        self._report = PoolReport(workers=workers)
        self._stop_after: Optional[int] = None

    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask workers to exit after their current job (graceful)."""
        self._stop.set()

    # ------------------------------------------------------------------
    def run(self, stop_after_jobs: Optional[int] = None) -> PoolReport:
        """Drain the queue; returns once all workers have exited.

        ``stop_after_jobs`` triggers a graceful stop once that many jobs
        reached a terminal state — the hook the interruption/resume
        tests and benchmarks use to cut a crawl short deterministically.
        """
        self._stop.clear()
        self._report = PoolReport(workers=self.workers)
        self.broker.tally = SettleTally()
        self._stop_after = stop_after_jobs
        self._publish_depth()
        if self.workers == 1:
            try:
                self._worker_loop(0)
            except KeyboardInterrupt:
                self._report.interrupted = True
        else:
            threads = [
                threading.Thread(target=self._worker_loop, args=(index,),
                                 name=f"{self.name}-{index}", daemon=True)
                for index in range(self.workers)]
            for thread in threads:
                thread.start()
            try:
                for thread in threads:
                    thread.join()
            except KeyboardInterrupt:
                self._report.interrupted = True
                self.request_stop()
                for thread in threads:
                    thread.join()
        # Finals still waiting for a lower job id (one stuck in retry
        # backoff at a stop) land now; the gaps stay for --resume.
        self.broker.flush()
        tally = self.broker.tally
        report = self._report
        report.completed, report.failed = tally.completed, tally.failed
        report.retried, report.lease_lost = tally.retried, tally.lease_lost
        report.errors.extend(tally.errors)
        if self._stop.is_set() and self.queue.outstanding() > 0:
            report.interrupted = True
        self._publish_depth()
        return report

    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        owner = f"{self.name}-{index}"
        # Route this thread's flight-recorder events into the worker's
        # own journal file. The binding is thread-local, and unbound in
        # the finally below — critical for 1-worker runs, which execute
        # inline in the calling thread.
        journal = self.telemetry.journal
        journal.bind_worker(owner)
        try:
            self._worker_loop_bound(index, owner, journal)
        finally:
            journal.unbind()

    def _worker_loop_bound(self, index: int, owner: str,
                           journal: Any) -> None:
        metrics = self.telemetry.metrics
        report = self._report
        busy = metrics.gauge("sched_workers_busy")
        queue_wait = metrics.histogram("queue_wait_seconds")
        lease_duration = metrics.histogram("lease_duration_seconds")
        while not self._stop.is_set():
            reclaimed = record_reclaim(
                self.telemetry, owner, self.queue.reclaim_expired(),
                self._hand_over)
            if reclaimed:
                with report.lock:
                    report.reclaimed += reclaimed
                self._publish_depth()
                self._check_stop_after()
                if self._stop.is_set():
                    return
            job = self.queue.claim(owner)
            if job is None:
                if not self._idle_wait():
                    return
                continue
            if self.fault_plan is not None:
                rule = self.fault_plan.check("pool.lease",
                                             url=job.site_url)
                if rule is not None and rule.fault == "worker_death":
                    # The worker "dies" right after claiming: nothing
                    # is recorded, the lease is left to expire (burning
                    # past it so a live worker can reclaim), and this
                    # thread plays its own replacement.
                    metrics.counter("sched_worker_deaths").inc()
                    journal.emit("worker_death", job_id=job.job_id,
                                 url=job.site_url)
                    with report.lock:
                        report.worker_deaths += 1
                    self.fault_plan.burn(
                        rule.seconds or self.queue.lease_seconds + 1.0)
                    continue
            metrics.counter("sched_jobs_claimed").inc()
            journal.emit("lease_claim", job_id=job.job_id,
                         url=job.site_url, attempts=job.attempts)
            queue_wait.observe(job.claimed_at - job.enqueued_at)
            busy.inc()
            with report.lock:
                report.claims += 1
            try:
                try:
                    resolution = {"kind": COMPLETE, "error": "",
                                  **(self.handler(job, index) or {})}
                except JobFailed as failure:
                    resolution = {"kind": RETRY if failure.retry
                                  else TERMINAL, "error": failure.reason}
                except Exception as exc:  # transient worker fault
                    resolution = {"kind": RETRY, "error": repr(exc)}
                self._hand_over({
                    **resolution, "job_id": job.job_id,
                    "site_url": job.site_url, "owner": job.lease_owner,
                    "attempts": job.attempts})
            finally:
                busy.dec()
                lease_duration.observe(
                    self.queue.clock.peek() - job.claimed_at)
                self._publish_depth()
            self._check_stop_after()

    def _hand_over(self, message: Dict[str, Any]) -> None:
        try:
            self.broker.handle_resolution(message)
        except Exception as exc:
            # The broker could not write what it settles. Its queue
            # transition rolled back with it, so the job stays leased
            # for --resume; stop rather than claim more work.
            with self._report.lock:
                self._report.errors.append(
                    f"{message['site_url']}: broker: {exc!r}")
            self._stop.set()

    def _check_stop_after(self) -> None:
        if self._stop_after is None:
            return
        tally = self.broker.tally
        with tally.lock:
            done = tally.completed + tally.failed
        if done >= self._stop_after:
            self._stop.set()

    # ------------------------------------------------------------------
    def _idle_wait(self) -> bool:
        """Nothing claimable: wait for work. False = queue is drained."""
        counts = self.queue.counts()
        if counts["pending"] == 0 and counts["leased"] == 0:
            return False  # drained — worker can exit
        # Every runnable job backing off and no leases live: jump
        # virtual time to the next retry instead of spinning. The queue
        # re-checks both conditions and advances under its own lock, so
        # a concurrent claim can't slip in between, and stacked idle
        # workers can't each advance past a lease. On a WallClock the
        # advance can't move time — fall through to the real nap.
        if self.queue.advance_if_idle():
            return True
        self._stop.wait(self.poll_seconds)
        return True

    def _publish_depth(self) -> None:
        metrics = self.telemetry.metrics
        if not getattr(metrics, "enabled", False):
            return
        for state, value in self.queue.counts().items():
            metrics.gauge("sched_queue_depth", state=state).set(value)
