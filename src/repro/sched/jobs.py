"""Persistent crawl job queue.

One row per site. Jobs move ``pending → leased → completed | failed``:

* ``claim`` leases the lowest-id ready job to a worker and consumes one
  attempt; the lease carries an expiry time, so a worker that dies
  mid-job does not strand the site — :meth:`reclaim_expired` returns the
  job to ``pending`` (or ``failed`` once attempts are exhausted).
* ``fail`` with ``retry=True`` re-queues the job with exponential
  backoff; the jitter added to each delay is *deterministic* — derived
  from ``(seed, site_url, attempt)`` — so a re-run of the same crawl
  schedules retries identically.
* The table lives in its own SQLite database (never the crawl
  database), so queue bookkeeping cannot perturb crawl-data
  determinism, and an interrupted crawl can be resumed by re-opening
  the queue file: completed sites stay completed, stale leases are
  released, and ``enqueue`` is idempotent (INSERT OR IGNORE on
  ``site_url``).

All access is serialized through one lock; the connection is shared
across worker threads (``check_same_thread=False``). File-backed queues
additionally run in WAL mode with a generous ``busy_timeout`` so that
*cross-process* claimants (``--worker-procs``) contend by waiting on
SQLite's lock instead of surfacing transient ``database is locked``
errors to the scheduler.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.obs.clock import VirtualClock

#: Job states.
PENDING = "pending"
LEASED = "leased"
COMPLETED = "completed"
FAILED = "failed"
STATES = (PENDING, LEASED, COMPLETED, FAILED)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id INTEGER PRIMARY KEY AUTOINCREMENT,
    site_url TEXT NOT NULL UNIQUE,
    status TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    not_before REAL NOT NULL DEFAULT 0.0,
    lease_owner TEXT,
    lease_expires_at REAL,
    enqueued_at REAL NOT NULL DEFAULT 0.0,
    claimed_at REAL,
    finished_at REAL,
    last_error TEXT DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_jobs_ready
    ON jobs (status, not_before, job_id);
"""


class LeaseError(RuntimeError):
    """A worker acted on a job whose lease it no longer holds."""


@dataclass
class Job:
    """A claimed job, as handed to a worker."""

    job_id: int
    site_url: str
    attempts: int
    enqueued_at: float
    claimed_at: float
    lease_owner: str


@dataclass
class ReclaimResult:
    """What one :meth:`JobQueue.reclaim_expired` sweep did.

    ``requeued`` leases went back to ``pending``; ``failed_jobs`` had
    no attempts left and went terminal — the caller settles those
    (:func:`repro.sched.settle.record_reclaim`) so the loss ledger
    stays complete.
    """

    requeued: int = 0
    failed_jobs: List[Job] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.requeued + len(self.failed_jobs)

    def __bool__(self) -> bool:
        return self.total > 0


def jitter_fraction(seed: int, site_url: str, attempt: int) -> float:
    """Deterministic jitter in [0, 1) for one (site, attempt) pair."""
    digest = hashlib.sha256(
        f"{seed}:{site_url}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class JobQueue:
    """SQLite-backed job queue with lease-based claiming."""

    def __init__(self, path: str = ":memory:", *, seed: int = 0,
                 max_attempts: int = 3, lease_seconds: float = 300.0,
                 backoff_base: float = 0.5, backoff_cap: float = 60.0,
                 clock: Optional[VirtualClock] = None) -> None:
        self.path = path
        self.seed = seed
        self.max_attempts = max_attempts
        self.lease_seconds = lease_seconds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.clock = clock if clock is not None else VirtualClock()
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            if path != ":memory:":
                # Cross-process claim contention (one queue file shared
                # by N worker processes) must degrade to *waiting*, not
                # to transient "database is locked" exceptions: WAL
                # lets readers proceed under a writer, and the busy
                # timeout makes writers queue behind each other.
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    # ------------------------------------------------------------------
    # Backoff policy
    # ------------------------------------------------------------------
    def retry_delay(self, site_url: str, attempt: int) -> float:
        """Exponential backoff plus deterministic per-site jitter."""
        base = min(self.backoff_cap,
                   self.backoff_base * 2.0 ** max(0, attempt - 1))
        return base * (1.0 + jitter_fraction(self.seed, site_url, attempt))

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def enqueue(self, site_urls: Iterable[str]) -> int:
        """Add sites; already-known sites (any state) are left alone.

        Returns the number of *newly* enqueued jobs — the idempotence
        that makes ``--resume`` safe to run with the full site list.
        """
        added = 0
        with self._lock:
            now = self.clock.peek()
            for url in site_urls:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO jobs (site_url, status, "
                    "max_attempts, enqueued_at) VALUES (?, ?, ?, ?)",
                    (url, PENDING, self.max_attempts, now))
                added += cursor.rowcount
            self._conn.commit()
        return added

    def clear(self) -> None:
        """Drop every job (fresh-crawl semantics)."""
        with self._lock:
            self._conn.execute("DELETE FROM jobs")
            self._conn.commit()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim(self, owner: str) -> Optional[Job]:
        """Lease the lowest-id ready job to *owner*, consuming an attempt.

        Cross-process safe: the lease is taken by a *conditional*
        update (``... WHERE status = pending``), so when two processes
        race for the same row exactly one update sticks and the loser
        simply moves on to the next candidate. A select-then-blind-
        update here would let a second claimant silently overwrite the
        first one's lease — the first worker would then run the visit
        only to lose it to a :class:`LeaseError` at completion.
        """
        with self._lock:
            while True:
                now = self.clock.now()
                row = self._conn.execute(
                    "SELECT job_id, site_url, attempts, enqueued_at "
                    "FROM jobs WHERE status = ? AND not_before <= ? "
                    "ORDER BY job_id LIMIT 1", (PENDING, now)).fetchone()
                if row is None:
                    return None
                cursor = self._conn.execute(
                    "UPDATE jobs SET status = ?, lease_owner = ?, "
                    "lease_expires_at = ?, claimed_at = ?, "
                    "attempts = attempts + 1 "
                    "WHERE job_id = ? AND status = ?",
                    (LEASED, owner, now + self.lease_seconds, now,
                     row["job_id"], PENDING))
                self._conn.commit()
                if cursor.rowcount == 0:
                    # Another process won this row between our read and
                    # our write; try the next candidate.
                    continue
                attempts = self._conn.execute(
                    "SELECT attempts FROM jobs WHERE job_id = ?",
                    (row["job_id"],)).fetchone()["attempts"]
                return Job(job_id=row["job_id"],
                           site_url=row["site_url"], attempts=attempts,
                           enqueued_at=row["enqueued_at"],
                           claimed_at=now, lease_owner=owner)

    def job_status(self, job_id: int) -> Optional[str]:
        """The job's current queue state (None if unknown)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT status FROM jobs WHERE job_id = ?",
                (job_id,)).fetchone()
            return row["status"] if row is not None else None

    def _checked_lease(self, job_id: int, owner: str) -> sqlite3.Row:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)).fetchone()
        if row is None or row["status"] != LEASED \
                or row["lease_owner"] != owner:
            raise LeaseError(
                f"job {job_id} is not leased to {owner!r} "
                f"(status={row['status'] if row else 'missing'!r})")
        if row["lease_expires_at"] is not None \
                and row["lease_expires_at"] < self.clock.peek():
            # An expired lease is a lost lease even before anyone
            # reclaims it: a worker that hung past its deadline must
            # not fail/retry a job another worker may re-run. (complete
            # is deliberately laxer — see its docstring.)
            raise LeaseError(
                f"job {job_id} lease held by {owner!r} expired at "
                f"{row['lease_expires_at']:.3f} "
                f"(now {self.clock.peek():.3f}); the job is eligible "
                f"for reclaim")
        return row

    def complete(self, job_id: int, owner: str,
                 stage: Optional[Callable[[str], Any]] = None) -> None:
        """Mark a leased job done. Raises :class:`LeaseError` if lost.

        Unlike :meth:`fail`, a *late* completion is accepted even after
        the lease expired, as long as nobody else has taken the job: a
        worker calling ``complete`` is demonstrably alive and its visit
        succeeded, so voiding the result would only force a duplicate
        re-run. (Expiry here is usually collateral — on the shared
        virtual clock another worker's hang can burn this worker's
        lease away mid-visit.) Two states qualify:

        * still ``leased`` to *owner* (no reclaim happened yet), or
        * requeued as ``pending`` by :meth:`reclaim_expired` but not
          yet re-claimed by anyone.

        Only when another worker holds — or already finished — the job
        does the late completion lose: :class:`LeaseError` is raised
        and the attempt's records must never reach the crawl data.

        ``stage(state)`` runs after the lease check passed and before
        the transition commits (see :meth:`_commit_staged`).
        """
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET status = ?, finished_at = ?, "
                "lease_owner = NULL, lease_expires_at = NULL "
                "WHERE job_id = ? AND ((status = ? AND lease_owner = ?) "
                "OR (status = ? AND last_error = 'lease_expired'))",
                (COMPLETED, self.clock.peek(), job_id, LEASED, owner,
                 PENDING))
            if cursor.rowcount == 0:
                self._conn.rollback()
                row = self._conn.execute(
                    "SELECT status, lease_owner FROM jobs "
                    "WHERE job_id = ?", (job_id,)).fetchone()
                raise LeaseError(
                    f"job {job_id} completion by {owner!r} lost the race "
                    f"(status={row['status'] if row else 'missing'!r}, "
                    f"owner={row['lease_owner'] if row else None!r})")
            self._commit_staged(stage, COMPLETED)

    def fail(self, job_id: int, owner: str, error: str = "",
             retry: bool = True,
             stage: Optional[Callable[[str], Any]] = None) -> str:
        """Record a failed attempt; re-queue with backoff or go terminal.

        Returns the job's resulting state (``pending`` or ``failed``).
        ``stage(state)`` runs as for :meth:`complete`.
        """
        with self._lock:
            row = self._checked_lease(job_id, owner)
            now = self.clock.peek()
            if retry and row["attempts"] < row["max_attempts"]:
                delay = self.retry_delay(row["site_url"], row["attempts"])
                state, not_before, finished_at = PENDING, now + delay, None
            else:
                state, not_before, finished_at = \
                    FAILED, row["not_before"], now
            cursor = self._conn.execute(
                "UPDATE jobs SET status = ?, not_before = ?, "
                "finished_at = ?, lease_owner = NULL, "
                "lease_expires_at = NULL, last_error = ? "
                "WHERE job_id = ? AND status = ? AND lease_owner = ?",
                (state, not_before, finished_at, error, job_id, LEASED,
                 owner))
            if cursor.rowcount == 0:
                self._conn.rollback()
                raise LeaseError(f"job {job_id} is no longer leased to "
                                 f"{owner!r}")
            self._commit_staged(stage, state)
            return state

    def _commit_staged(self, stage: Optional[Callable[[str], Any]],
                       state: str) -> None:
        """Commit a settling transition, running *stage* first.

        The conditional update above holds the queue's write lock (and,
        in-process, ``self._lock``), so no claimant can take the job
        between the lease check and the commit. Whatever *stage*
        writes — an attempt's crawl rows — is therefore durable before
        the queue says the job settled: a crash in between leaves at
        worst a duplicate for ``--resume`` to re-run, never a loss. An
        exception from *stage* rolls the transition back.
        """
        if stage is not None:
            try:
                stage(state)
            except BaseException:
                self._conn.rollback()
                raise
        self._conn.commit()

    def hold(self, job_id: int, owner: str) -> bool:
        """Stop *owner*'s lease on a job from expiring.

        For an attempt that has finished but waits for its turn to be
        settled in job-id order: neither reclaim sweep takes the job
        (a held lease has no expiry), and the pool does not count it as
        a live lease when it jumps idle virtual time. Returns False
        when *owner* no longer holds the job.
        """
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET lease_expires_at = NULL "
                "WHERE job_id = ? AND status = ? AND lease_owner = ?",
                (job_id, LEASED, owner))
            self._conn.commit()
            return cursor.rowcount > 0

    # ------------------------------------------------------------------
    # Crash safety
    # ------------------------------------------------------------------
    def reclaim_expired(self) -> ReclaimResult:
        """Return timed-out leases to the queue (worker died mid-job).

        Jobs with attempts left go back to ``pending`` (with backoff);
        exhausted jobs go terminally ``failed`` and are returned in
        ``failed_jobs`` so the caller can record the loss.
        """
        with self._lock:
            return self._release("lease_expires_at < ?",
                                 (self.clock.peek(),))

    def release_owner(self, owner: str) -> ReclaimResult:
        """Release every lease held by one *known-dead* worker process.

        The process supervisor calls this the moment it reaps a worker:
        unlike :meth:`reclaim_expired` it ignores expiry times (the
        owner is dead, so any lease it held is stale *now*), and unlike
        :meth:`release_leases` it touches only that owner's leases so
        live siblings keep theirs. Jobs with attempts left go back to
        ``pending`` with backoff; exhausted jobs go terminally
        ``failed`` and are returned so the caller can record the loss.
        """
        with self._lock:
            return self._release("lease_owner = ?", (owner,))

    def _release(self, where: str, params: tuple) -> ReclaimResult:
        """Requeue (or, out of attempts, fail) the leased jobs matching
        *where*. Caller holds ``self._lock``."""
        now = self.clock.peek()
        rows = self._conn.execute(
            "SELECT job_id, site_url, attempts, max_attempts, "
            "enqueued_at, claimed_at, lease_owner "
            f"FROM jobs WHERE status = ? AND {where}",  # noqa: S608
            (LEASED,) + params).fetchall()
        result = ReclaimResult()
        for row in rows:
            if row["attempts"] < row["max_attempts"]:
                delay = self.retry_delay(row["site_url"], row["attempts"])
                status, not_before, finished_at = PENDING, now + delay, None
                result.requeued += 1
            else:
                status, not_before, finished_at = FAILED, None, now
                result.failed_jobs.append(Job(
                    job_id=row["job_id"], site_url=row["site_url"],
                    attempts=row["attempts"],
                    enqueued_at=row["enqueued_at"],
                    claimed_at=row["claimed_at"] or 0.0,
                    lease_owner=row["lease_owner"] or ""))
            self._conn.execute(
                "UPDATE jobs SET status = ?, "
                "not_before = COALESCE(?, not_before), "
                "finished_at = COALESCE(?, finished_at), "
                "lease_owner = NULL, lease_expires_at = NULL, "
                "last_error = 'lease_expired' WHERE job_id = ?",
                (status, not_before, finished_at, row["job_id"]))
        if rows:
            self._conn.commit()
        return result

    def release_leases(self) -> int:
        """Release *every* lease (start-of-resume crash recovery).

        Unlike :meth:`reclaim_expired` this ignores expiry times: the
        previous process is known dead, so any lease it held is stale.
        """
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET status = ?, not_before = 0.0, "
                "lease_owner = NULL, lease_expires_at = NULL "
                "WHERE status = ?", (PENDING, LEASED))
            self._conn.commit()
            return cursor.rowcount

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {state: 0 for state in STATES}
            for row in self._conn.execute(
                    "SELECT status, COUNT(*) AS n FROM jobs "
                    "GROUP BY status"):
                out[row["status"]] = int(row["n"])
            return out

    def outstanding(self) -> int:
        """Jobs not yet in a terminal state (pending + leased)."""
        counts = self.counts()
        return counts[PENDING] + counts[LEASED]

    def next_ready_in(self) -> Optional[float]:
        """Seconds until the earliest pending job becomes claimable.

        0.0 when one is ready now; ``None`` when nothing is pending.
        """
        with self._lock:
            return self._next_ready_in_locked()

    def _next_ready_in_locked(self) -> Optional[float]:
        row = self._conn.execute(
            "SELECT MIN(not_before) AS t FROM jobs WHERE status = ?",
            (PENDING,)).fetchone()
        if row is None or row["t"] is None:
            return None
        return max(0.0, float(row["t"]) - self.clock.peek())

    def advance_if_idle(self) -> bool:
        """Jump the clock to the next retry time iff the queue is idle.

        The leased-count check and the advance happen under the queue
        lock — the same lock :meth:`claim` takes — so no job can be
        claimed (and no lease can start ticking) between "nothing is
        leased" and the advance, and concurrent idle workers cannot
        stack advances: the first one moves time, the rest re-check and
        find either a ready job or a live lease. A held lease
        (:meth:`hold`) is not live: its attempt is over. Returns True
        only when the clock actually moved (a :class:`WallClock`
        advance is a no-op — callers must then fall back to a real
        sleep).
        """
        with self._lock:
            leased = self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE status = ? "
                "AND lease_expires_at IS NOT NULL",
                (LEASED,)).fetchone()["n"]
            if leased:
                return False
            hint = self._next_ready_in_locked()
            if hint is None or hint <= 0:
                return False
            before = self.clock.peek()
            self.clock.advance(hint)
            # A real advance jumps by the full hint; a WallClock no-op
            # only shows the sub-millisecond drift between two reads.
            return self.clock.peek() - before >= hint

    def sites(self, status: Optional[str] = None) -> List[str]:
        with self._lock:
            sql = "SELECT site_url FROM jobs"
            params: tuple = ()
            if status is not None:
                sql += " WHERE status = ?"
                params = (status,)
            sql += " ORDER BY job_id"
            return [row["site_url"]
                    for row in self._conn.execute(sql, params)]

    def job_rows(self) -> List[Dict[str, object]]:
        with self._lock:
            return [dict(row) for row in self._conn.execute(
                "SELECT * FROM jobs ORDER BY job_id")]

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()
