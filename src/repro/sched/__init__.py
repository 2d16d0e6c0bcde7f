"""Parallel crawl scheduler: persistent queue, workers, resume.

The subsystem the large-scale crawls (Tranco-100K incidence study,
Sec. 4) run on: a SQLite-backed job queue with lease-based claiming and
deterministic retry backoff (:mod:`repro.sched.jobs`), a thread worker
pool where each worker owns one browser slot (:mod:`repro.sched.pool`),
the one routine that settles every job outcome against the queue and
the job-id-ordered broker both pools hand their resolutions to
(:mod:`repro.sched.settle`),
the checkpoint/resume orchestration tying them together
(:mod:`repro.sched.scheduler`), and a process-isolated worker pool with
a supervising coordinator and single-writer storage broker
(:mod:`repro.sched.procpool`, ``--worker-procs``). ``python -m repro
crawl`` is the CLI surface.
"""

from repro.sched.jobs import (
    COMPLETED,
    FAILED,
    LEASED,
    PENDING,
    Job,
    JobQueue,
    LeaseError,
    ReclaimResult,
    jitter_fraction,
)
from repro.sched.pool import JobFailed, PoolReport, WorkerPool
from repro.sched.procpool import (
    CrawlBroker,
    ProcessPool,
    ProcPoolReport,
    WorkerSpec,
    diff_snapshots,
    run_process_crawl,
    run_process_scan,
)
from repro.sched.scheduler import CrawlReport, CrawlScheduler
from repro.sched.settle import LOST, Broker

__all__ = [
    "COMPLETED",
    "FAILED",
    "LEASED",
    "PENDING",
    "Job",
    "JobQueue",
    "LeaseError",
    "ReclaimResult",
    "jitter_fraction",
    "JobFailed",
    "PoolReport",
    "WorkerPool",
    "CrawlReport",
    "CrawlScheduler",
    "CrawlBroker",
    "ProcessPool",
    "ProcPoolReport",
    "WorkerSpec",
    "diff_snapshots",
    "run_process_crawl",
    "run_process_scan",
    "LOST",
    "Broker",
]
