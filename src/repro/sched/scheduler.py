"""Crawl orchestration: queue + pool + checkpoint/resume semantics.

:class:`CrawlScheduler` is the high-level entry point the task manager,
the Sec. 4 scan pipeline, and the Sec. 6 paired crawl build on:

* **fresh crawl** (``resume=False``) — any existing queue content is
  dropped, the site list is enqueued, and the pool drains it;
* **resume** (``resume=True``) — the existing queue file is kept:
  completed sites stay completed (and are *not* revisited), leases held
  by the dead previous process are released back to ``pending``, and
  enqueueing the same site list is a no-op for known sites.

The queue database is deliberately separate from the crawl database so
scheduling state never perturbs crawl-data determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.telemetry import Telemetry, coalesce
from repro.sched.jobs import JobQueue
from repro.sched.pool import JobHandler, WorkerPool
from repro.sched.settle import Broker


@dataclass
class CrawlReport:
    """Outcome of one scheduler run (one process lifetime)."""

    workers: int = 0
    enqueued_total: int = 0
    enqueued_new: int = 0
    released_leases: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    reclaimed: int = 0
    worker_deaths: int = 0
    lease_lost: int = 0
    interrupted: bool = False
    #: Queue state after the run: pending/leased/completed/failed.
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def drained(self) -> bool:
        """True when no work is left in the queue."""
        return self.counts.get("pending", 0) == 0 \
            and self.counts.get("leased", 0) == 0


class CrawlScheduler:
    """Owns a job queue and runs worker pools against it."""

    def __init__(self, queue_path: str = ":memory:", *,
                 resume: bool = False, seed: int = 0,
                 max_attempts: int = 3, lease_seconds: float = 300.0,
                 backoff_base: float = 0.5, backoff_cap: float = 60.0,
                 telemetry: Optional[Telemetry] = None,
                 clock: Optional[object] = None) -> None:
        if resume and queue_path == ":memory:":
            raise ValueError(
                "resume requires a file-backed queue (an in-memory "
                "queue cannot outlive the crawl that created it)")
        self.telemetry = coalesce(telemetry)
        # Lease timestamps default to the telemetry clock (virtual in
        # tests). Multi-process crawls pass an explicit WallClock: a
        # lease deadline must mean the same instant to every claimant
        # process, and per-process virtual clocks advance independently.
        self.queue = JobQueue(
            queue_path, seed=seed, max_attempts=max_attempts,
            lease_seconds=lease_seconds, backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            clock=clock if clock is not None else self.telemetry.clock)
        self.resume = resume
        self._released = 0
        if resume:
            # The process that held these leases is gone; a lease only
            # outlives its worker when that worker died mid-job.
            self._released = self.queue.release_leases()
        else:
            self.queue.clear()
        self._pool: Optional[WorkerPool] = None
        self._enqueued_new = 0

    # ------------------------------------------------------------------
    def enqueue(self, site_urls: Iterable[str]) -> int:
        """Idempotently add sites; returns how many were new."""
        added = self.queue.enqueue(site_urls)
        self._enqueued_new += added
        return added

    def remaining_sites(self) -> List[str]:
        """Sites still owed a visit (the resume work list)."""
        return self.queue.sites(status="pending") \
            + self.queue.sites(status="leased")

    # ------------------------------------------------------------------
    def run(self, handler: JobHandler, workers: int = 1,
            stop_after_jobs: Optional[int] = None,
            poll_seconds: float = 0.005,
            broker: Optional[Broker] = None,
            fault_plan: Optional[object] = None
            ) -> CrawlReport:
        """Drain the queue through *handler* on N workers, settling
        every resolution through *broker*."""
        self._pool = WorkerPool(self.queue, handler, workers=workers,
                                telemetry=self.telemetry,
                                poll_seconds=poll_seconds,
                                broker=broker,
                                fault_plan=fault_plan)
        return self.report(self._pool.run(stop_after_jobs=stop_after_jobs))

    def report(self, pool_report: Any) -> CrawlReport:
        """The :class:`CrawlReport` of one pool run against this queue
        (a thread pool's, or a process pool's
        :class:`~repro.sched.procpool.ProcPoolReport`)."""
        counts = self.queue.counts()
        return CrawlReport(
            workers=pool_report.workers,
            enqueued_total=sum(counts.values()),
            enqueued_new=self._enqueued_new,
            released_leases=self._released,
            completed=pool_report.completed,
            failed=pool_report.failed,
            retried=pool_report.retried,
            reclaimed=pool_report.reclaimed,
            worker_deaths=pool_report.worker_deaths,
            lease_lost=pool_report.lease_lost,
            interrupted=pool_report.interrupted,
            counts=counts,
            errors=list(pool_report.errors))

    def request_stop(self) -> None:
        if self._pool is not None:
            self._pool.request_stop()

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.queue.close()
