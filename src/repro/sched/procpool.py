"""Process-isolated crawl workers with a single-writer storage broker.

The thread pool (:mod:`repro.sched.pool`) can *detect* a hung visit via
the watchdog but cannot kill it — a wedged JS interpretation holds its
thread (and the GIL) forever. This module gives the watchdog teeth:

* each worker is a **spawned subprocess** owning one browser slot,
  which records into its own
  :class:`~repro.openwpm.storage.VisitRecorder`;
* workers claim jobs from the shared SQLite :class:`JobQueue` (WAL mode
  + busy timeout, wall-clock leases valid across processes);
* every row a job attempt recorded travels as one envelope
  (:meth:`~repro.openwpm.task_manager.TaskManager.run_job`) over a pipe
  to the coordinator's :class:`CrawlBroker` — the same broker a thread
  crawl settles through, and the one and only writer of the crawl
  database, so SQLite never sees concurrent writers and a voided
  attempt's envelope is dropped before it reaches the database;
* a scan worker runs :meth:`~repro.core.scan.pipeline.ScanPipeline.scan_job`
  against its own in-memory corpus and ships the resolution, with the
  script bodies it saw, to the
  :class:`~repro.core.scan.pipeline.ScanBroker` an inline or thread
  scan settles through too;
* record and replay work as in-process: a recording worker's browser
  captures each attempt's execution-bundle data, which travels in the
  resolution for the broker to write, and a replaying worker opens the
  bundle directory named in its :class:`WorkerSpec` itself;
* the broker applies *final* job resolutions in strict job-id order, so
  a clean N-process crawl lands byte-identical visit ids and row order
  to the 1-worker inline path;
* a supervisor watches per-worker heartbeats and walks the ladder
  **heartbeat miss → SIGKILL → lease release → respawn (with crash-loop
  backoff) → pool shrink → crawl abort**, keeping the queue's
  exactly-once accounting intact at every rung.

Fault injection: the plan's ``proc.claim`` / ``proc.mid_visit`` /
``proc.envelope`` / ``proc.respawn`` points drive ``worker_sigkill``,
``broker_pipe_error``, ``respawn_failure`` and *real-time* ``hang``
faults (see :mod:`repro.faults.plan`). Workers report proc-level rule
firings before executing them, so a respawned worker pre-consumes the
spent ``times`` budget and a kill-once rule kills exactly once per
lineage.

Determinism caveats (documented, asserted by tests where it matters):

* clean runs (no faults) are byte-identical to the inline path for any
  worker count, on the lab and the synthetic Tranco web alike: every
  attempt starts its site on a per-site identity
  (:meth:`repro.browser.browser.Browser.begin_site`), so a site's rows
  do not depend on which sites its worker visited before;
* under faults, *site-level exactly-once* accounting always holds
  (every enqueued site ends exactly once across completed /
  ``failed_visits`` / ``quarantined_sites``), but metric books may
  undercount for SIGKILLed workers (their last heartbeat snapshot is
  the final word) and ``times``/``nth`` budgets of visit-level rules
  are per-process.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.clock import WallClock
from repro.obs.telemetry import Telemetry, coalesce
from repro.sched.jobs import COMPLETED, Job, JobQueue
from repro.sched.settle import (
    LOST,
    Broker,
    SettleTally,
    record_reclaim,
)

#: Real seconds a worker may stay silent before the supervisor SIGKILLs
#: it. Generous by default — worker start-up imports and world building
#: happen before the first heartbeat.
DEFAULT_HEARTBEAT_DEADLINE = 60.0
#: Abnormal deaths per slot before the pool shrinks instead of
#: respawning (the crash-loop ladder's last rung before abort).
DEFAULT_RESPAWN_LIMIT = 3


# ----------------------------------------------------------------------
# Worker specification (must stay picklable for the spawn context)
# ----------------------------------------------------------------------
@dataclass
class WorkerSpec:
    """Everything a worker process needs to rebuild its slice of the
    crawl. Plain data only — this crosses the spawn pickle boundary."""

    kind: str                       # "crawl" | "scan"
    slot: int                       # stable slot index
    owner: str                      # unique lease owner (per incarnation)
    queue_path: str
    seed: int = 0
    # crawl: worker-local manager config (fault_plan stripped — it is
    # rebuilt from ``fault_plan`` below; database_path is ":memory:").
    manager_params: Any = None
    browser_params: Any = None
    web: str = "lab"                # "lab" | "tranco"
    site_count: int = 0
    world_seed: int = 7             # build_world seed (tranco/scan webs)
    fault_plan: Optional[Dict[str, Any]] = None
    #: rule index -> firings already spent by this slot's dead
    #: predecessors (pre-consumed so kill-once rules kill once).
    fault_spent: Dict[int, int] = field(default_factory=dict)
    max_attempts: int = 2
    lease_seconds: float = 300.0
    backoff_base: float = 0.5
    backoff_cap: float = 60.0
    journal_dir: Optional[str] = None
    heartbeat_seconds: float = 1.0
    poll_seconds: float = 0.05
    #: max jobs this incarnation may claim (checkpoint stops: the
    #: coordinator's stop broadcast races fire-and-forget workers, so
    #: the budget is what makes ``stop_after_jobs`` deterministic).
    claim_budget: Optional[int] = None
    #: Replay source: the worker serves every fetch from this bundle.
    bundle_path: Optional[str] = None
    #: Capture each attempt's execution-bundle data for the broker.
    capture_bundles: bool = False
    # scan:
    scan_client_id: str = "scan-client"
    scan_dwell: float = 60.0
    scan_max_subpages: int = 3
    scan_visit_subpages: bool = True


# ----------------------------------------------------------------------
# Metrics snapshot diffing (cumulative worker snapshot -> delta)
# ----------------------------------------------------------------------
def _labels_key(labels: Dict[str, Any]) -> Tuple:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


def diff_snapshots(prev: Optional[List[Dict[str, Any]]],
                   curr: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The delta between two cumulative metric snapshots.

    Counters and histograms subtract (so applying the delta via
    :meth:`MetricsRegistry.restore` is additive and idempotent per
    message); gauges pass through absolute (restore adopts the value).
    """
    prev_map = {(m["name"], m["kind"], _labels_key(m.get("labels", {}))): m
                for m in (prev or [])}
    delta: List[Dict[str, Any]] = []
    for metric in curr:
        key = (metric["name"], metric["kind"],
               _labels_key(metric.get("labels", {})))
        base = prev_map.get(key)
        if metric["kind"] == "counter":
            value = metric["value"] - (base["value"] if base else 0.0)
            if value:
                delta.append({**metric, "value": value})
        elif metric["kind"] == "gauge":
            delta.append(dict(metric))
        else:  # histogram
            base_counts = base["bucket_counts"] if base \
                else [0] * len(metric["bucket_counts"])
            counts = [c - b for c, b in
                      zip(metric["bucket_counts"], base_counts)]
            count = metric["count"] - (base["count"] if base else 0)
            if count or any(counts):
                delta.append({**metric, "count": count,
                              "sum": metric["sum"]
                              - (base["sum"] if base else 0.0),
                              "bucket_counts": counts})
    return delta


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _send(conn: Any, message: Dict[str, Any]) -> None:
    conn.send(message)


def _build_worker_plan(spec: WorkerSpec) -> Optional[Any]:
    from repro.faults.plan import FaultPlan

    if spec.fault_plan is None:
        return None
    plan = FaultPlan.from_dict(spec.fault_plan)
    for index, fires in (spec.fault_spent or {}).items():
        plan.preconsume(int(index), int(fires))
    return plan


class _ProcFaults:
    """Worker-side handler for the ``proc.*`` choke points."""

    def __init__(self, plan: Optional[Any], conn: Any,
                 journal: Any) -> None:
        self.plan = plan
        self.conn = conn
        self.journal = journal

    def install_reporting(self) -> None:
        """Report proc-level firings to the supervisor *before* their
        effect runs, chaining any hook the task manager installed."""
        if self.plan is None:
            return
        previous = self.plan.on_trigger

        def on_trigger(point: str, url: str, index: int,
                       fault: str) -> None:
            if previous is not None:
                previous(point, url, index, fault)
            if point.startswith("proc."):
                try:
                    _send(self.conn, {"type": "fault_fired",
                                      "rule": index, "fault": fault,
                                      "point": point})
                except (OSError, ValueError):
                    pass  # pipe gone; the supervisor infers the death

        self.plan.on_trigger = on_trigger

    def check(self, point: str, url: str = "") -> None:
        """Fire a proc-level fault if one matches. May not return."""
        if self.plan is None:
            return
        rule = self.plan.check(point, url)
        if rule is None:
            return
        from repro.faults.plan import DEFAULT_HANG_SECONDS

        if rule.fault == "worker_sigkill":
            self.journal.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        elif rule.fault == "broker_pipe_error":
            # Poison the envelope channel: the next send raises, the
            # worker dies, the supervisor reaps and re-runs the job.
            self.journal.flush()
            self.conn.close()
            raise RuntimeError("broker pipe error (injected)")
        elif rule.fault == "hang":
            # REAL wall time with no heartbeats — only the supervisor's
            # SIGKILL ladder rescues the slot.
            time.sleep(rule.seconds or DEFAULT_HANG_SECONDS)
        # Other kinds are meaningless at proc points; ignore.


def _worker_entry(spec: WorkerSpec, conn: Any) -> None:
    """Spawn entry point (module-level so the spawn context can pickle
    a reference to it)."""
    from repro.obs.journal import NULL_JOURNAL, Journal

    telemetry = Telemetry()
    journal: Any = NULL_JOURNAL
    if spec.journal_dir is not None:
        # Each worker process claims its own journal epoch through the
        # MANIFEST (atomic O_EXCL claim), so a respawn's fresh epoch
        # never interleaves with a SIGKILLed predecessor's torn tail.
        journal = Journal(spec.journal_dir, telemetry.clock)
        telemetry.attach_journal(journal)
    try:
        if spec.kind == "crawl":
            _run_crawl_worker(spec, conn, telemetry, journal)
        elif spec.kind == "scan":
            _run_scan_worker(spec, conn, telemetry, journal)
        else:  # pragma: no cover - spec built by this module
            raise ValueError(f"unknown worker kind {spec.kind!r}")
    except BaseException as exc:  # noqa: BLE001 - shipped to supervisor
        try:
            _send(conn, {"type": "fatal", "error": repr(exc),
                         "metrics": telemetry.metrics.snapshot()})
        except (OSError, ValueError):
            pass
        raise
    finally:
        journal.flush()
        journal.close()
        try:
            conn.close()
        except OSError:
            pass


def _open_worker_queue(spec: WorkerSpec) -> JobQueue:
    return JobQueue(spec.queue_path, seed=spec.seed,
                    max_attempts=spec.max_attempts,
                    lease_seconds=spec.lease_seconds,
                    backoff_base=spec.backoff_base,
                    backoff_cap=spec.backoff_cap, clock=WallClock())


def _poll_stop(conn: Any) -> bool:
    """Drain coordinator->worker messages; True when a stop arrived."""
    stop = False
    while conn.poll():
        try:
            message = conn.recv()
        except EOFError:
            return True
        if isinstance(message, dict) and message.get("type") == "stop":
            stop = True
    return stop


class _Heartbeat:
    def __init__(self, conn: Any, telemetry: Telemetry,
                 interval: float) -> None:
        self.conn = conn
        self.telemetry = telemetry
        self.interval = interval
        self._last = 0.0

    def beat(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        _send(self.conn, {"type": "heartbeat",
                          "metrics": self.telemetry.metrics.snapshot()})


def _serve_claims(spec: WorkerSpec, conn: Any, telemetry: Telemetry,
                  journal: Any, faults: _ProcFaults,
                  run_job: Callable[[Job, _Heartbeat], Dict[str, Any]]
                  ) -> None:
    """The worker side of the pool: claim jobs from the shared queue
    until it drains or the coordinator stops us, and ship each job's
    resolution — ``kind``, ``error`` and the payload *run_job*
    returns with them — to the coordinator."""
    queue = _open_worker_queue(spec)
    wall = queue.clock
    journal.bind_worker(spec.owner)
    metrics = telemetry.metrics
    busy = metrics.gauge("sched_workers_busy")
    queue_wait = metrics.histogram("queue_wait_seconds")
    lease_duration = metrics.histogram("lease_duration_seconds")
    heartbeat = _Heartbeat(conn, telemetry, spec.heartbeat_seconds)
    _send(conn, {"type": "ready", "owner": spec.owner,
                 "pid": os.getpid()})
    claimed = 0
    try:
        while True:
            if _poll_stop(conn) or (spec.claim_budget is not None
                                    and claimed >= spec.claim_budget):
                _send(conn, {"type": "stopped",
                             "metrics": metrics.snapshot()})
                return
            heartbeat.beat()
            job = queue.claim(spec.owner)
            if job is None:
                counts = queue.counts()
                if counts.get("pending", 0) == 0 \
                        and counts.get("leased", 0) == 0:
                    _send(conn, {"type": "drained",
                                 "metrics": metrics.snapshot()})
                    return
                time.sleep(spec.poll_seconds)
                continue
            claimed += 1
            faults.check("proc.claim", job.site_url)
            journal.emit("lease_claim", job_id=job.job_id,
                         url=job.site_url, attempts=job.attempts)
            metrics.counter("sched_jobs_claimed").inc()
            queue_wait.observe(max(0.0, job.claimed_at - job.enqueued_at))
            busy.inc()
            try:
                resolution = run_job(job, heartbeat)
            finally:
                busy.dec()
                lease_duration.observe(max(0.0, wall.peek()
                                           - job.claimed_at))
            faults.check("proc.envelope", job.site_url)
            _send(conn, {
                "type": "resolution", "job_id": job.job_id,
                "owner": spec.owner, "site_url": job.site_url,
                "attempts": job.attempts,
                "metrics": metrics.snapshot(), **resolution})
    finally:
        journal.unbind()
        queue.close()


def _run_crawl_worker(spec: WorkerSpec, conn: Any, telemetry: Telemetry,
                      journal: Any) -> None:
    from repro.openwpm.task_manager import TaskManager

    if spec.bundle_path is not None:
        from repro.bundles import Bundle, ReplayNetwork

        network = ReplayNetwork(Bundle(spec.bundle_path),
                                telemetry=telemetry)
    elif spec.web == "tranco":
        from repro.web import build_world

        network = build_world(site_count=spec.site_count,
                              seed=spec.world_seed).network
    else:
        from repro.core.lab import make_lab_network

        network = make_lab_network()

    plan = _build_worker_plan(spec)
    manager = TaskManager(
        replace(spec.manager_params, num_browsers=1,
                database_path=":memory:", fault_plan=plan),
        [spec.browser_params], network, telemetry=telemetry)
    manager.capture_bundles = spec.capture_bundles
    faults = _ProcFaults(manager.fault_plan, conn, journal)
    faults.install_reporting()
    slot = manager.browsers[0]

    def run_job(job: Job, heartbeat: _Heartbeat) -> Dict[str, Any]:
        def mid_visit(browser: Any, result: Any) -> None:
            # Runs at the visit.callbacks stage of every attempt: the
            # natural place for a mid-visit SIGKILL (records exist, the
            # envelope was never shipped) and for an in-visit heartbeat.
            heartbeat.beat(force=True)
            faults.check("proc.mid_visit", job.site_url)

        return manager.run_job(job.site_url, slot, [mid_visit])

    try:
        _serve_claims(spec, conn, telemetry, journal, faults, run_job)
    finally:
        manager.storage.close()


def _run_scan_worker(spec: WorkerSpec, conn: Any, telemetry: Telemetry,
                     journal: Any) -> None:
    from repro.core.scan.pipeline import ScanPipeline
    from repro.corpus import ScriptCorpus
    from repro.jsengine.interpreter import export_cache_metrics

    if spec.bundle_path is not None:
        from repro.bundles import Bundle, ReplayWeb

        web = ReplayWeb(Bundle(spec.bundle_path), telemetry=telemetry)
    else:
        from repro.web import build_world

        web = build_world(site_count=spec.site_count,
                          seed=spec.world_seed)
    pipeline = ScanPipeline(web, client_id=spec.scan_client_id,
                            seed=spec.seed, dwell=spec.scan_dwell,
                            max_subpages=spec.scan_max_subpages,
                            telemetry=telemetry)
    pipeline.capture_bundles = spec.capture_bundles
    plan = _build_worker_plan(spec)
    faults = _ProcFaults(plan, conn, journal)
    faults.install_reporting()
    corpus = ScriptCorpus(":memory:")
    pipeline.seed_from_bundle(corpus)

    def run_job(job: Job, heartbeat: _Heartbeat) -> Dict[str, Any]:
        resolution = pipeline.scan_job(job.site_url, corpus,
                                       spec.scan_visit_subpages,
                                       ship_sources=True)
        heartbeat.beat(force=True)
        # Refresh the engine-cache gauges so the shipped snapshot
        # carries them (the inline path exports these at run end).
        export_cache_metrics(telemetry.metrics)
        return resolution

    try:
        _serve_claims(spec, conn, telemetry, journal, faults, run_job)
    finally:
        corpus.close()


# ----------------------------------------------------------------------
# Coordinator side: the crawl broker
# ----------------------------------------------------------------------
class CrawlBroker(Broker):
    """The single writer of the crawl database, in every crawl mode.

    Thread and process workers alike ship each attempt's envelope
    (:meth:`~repro.openwpm.task_manager.TaskManager.run_job`). The
    broker lands a standing verdict's envelope inside the queue
    transition and drops a voided one; the task manager's
    :meth:`~repro.openwpm.task_manager.TaskManager.settle_visit`
    applies the ledger rules to both."""

    def __init__(self, manager: Any, queue: JobQueue,
                 telemetry: Telemetry) -> None:
        super().__init__(queue, telemetry)
        self.manager = manager

    def _stage(self, message: Dict[str, Any], state: str) -> None:
        self.manager.settle_visit(message, state)

    def _settled(self, message: Dict[str, Any], state: str,
                 staged: Any) -> None:
        if state == LOST:
            self.manager.settle_visit(
                message, LOST, completed_elsewhere=self.queue.job_status(
                    message["job_id"]) == COMPLETED)


# ----------------------------------------------------------------------
# Coordinator side: supervision
# ----------------------------------------------------------------------
@dataclass
class ProcPoolReport(SettleTally):
    """Outcome of one process-pool run."""

    workers: int = 0
    reclaimed: int = 0
    worker_deaths: int = 0
    workers_spawned: int = 0
    workers_killed: int = 0
    workers_respawned: int = 0
    heartbeats_missed: int = 0
    pool_shrinks: int = 0
    interrupted: bool = False


class _Slot:
    """One supervised worker slot (a lineage of process incarnations)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Any = None
        self.conn: Any = None
        self.owner = ""
        self.generation = 0
        self.last_seen = 0.0
        self.clean_exit = False
        self.retired = False       # shrunk out of the pool
        self.finished = False      # drained/stopped cleanly
        self.deaths = 0
        self.next_respawn_at: Optional[float] = None
        self.prev_metrics: Optional[List[Dict[str, Any]]] = None

    @property
    def live(self) -> bool:
        return self.proc is not None

    @property
    def active(self) -> bool:
        """Still owed work: live, or waiting on a scheduled respawn."""
        return self.live or (not self.retired and not self.finished
                             and self.next_respawn_at is not None)


class ProcessPool:
    """Spawns, feeds, supervises, and reaps the worker processes.

    The supervision ladder, in order: a worker that misses its
    heartbeat deadline is SIGKILLed; any abnormal death drains the
    worker's pipe, force-applies its buffered finals, releases its
    leases back to the queue (terminal releases become ordered
    ledger entries), and schedules a respawn with exponential
    crash-loop backoff; a slot exceeding ``respawn_limit`` abnormal
    deaths is retired (pool shrink); when every slot is retired with
    work still outstanding the run aborts as interrupted (resumable).
    """

    def __init__(self, queue: JobQueue, broker: Any,
                 make_spec: Callable[[int, int, Dict[int, int]],
                                     WorkerSpec],
                 worker_procs: int, *,
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[Any] = None,
                 heartbeat_deadline: Optional[float] = None,
                 respawn_limit: Optional[int] = None,
                 respawn_backoff: float = 0.5,
                 reclaim_interval: float = 0.5) -> None:
        self.queue = queue
        self.broker = broker
        self.make_spec = make_spec
        self.worker_procs = worker_procs
        self.tm = coalesce(telemetry)
        self.fault_plan = fault_plan
        self.heartbeat_deadline = DEFAULT_HEARTBEAT_DEADLINE \
            if heartbeat_deadline is None else heartbeat_deadline
        self.respawn_limit = DEFAULT_RESPAWN_LIMIT \
            if respawn_limit is None else respawn_limit
        self.respawn_backoff = respawn_backoff
        self.reclaim_interval = reclaim_interval
        self.clock = queue.clock
        self.slots = [_Slot(i) for i in range(worker_procs)]
        #: rule index -> proc-level firings observed across all workers
        #: (pre-consumed into respawn specs).
        self.fault_spent: Dict[int, int] = {}
        self.report = ProcPoolReport(workers=worker_procs)
        self._ctx = get_context("spawn")
        self._stop_sent = False
        self._claim_budget: Optional[int] = None
        self._last_reclaim = 0.0

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, slot: _Slot, respawn: bool = False) -> None:
        slot.generation += 1
        slot.owner = f"proc-{slot.index}-g{slot.generation}"
        spec = self.make_spec(slot.index, slot.generation,
                              dict(self.fault_spent))
        spec.claim_budget = self._claim_budget
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_entry,
                                 args=(spec, child_conn),
                                 name=slot.owner, daemon=True)
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.last_seen = time.monotonic()
        slot.clean_exit = False
        slot.next_respawn_at = None
        slot.prev_metrics = None
        self.report.workers_spawned += 1
        self.tm.metrics.counter("proc_workers_spawned").inc()
        event = "proc_respawn" if respawn else "proc_spawn"
        self.tm.journal.emit(event, slot=slot.index, owner=slot.owner,
                             pid=proc.pid)
        if respawn:
            self.report.workers_respawned += 1
            self.tm.metrics.counter("proc_workers_respawned").inc()

    def _broadcast_stop(self) -> None:
        if self._stop_sent:
            return
        self._stop_sent = True
        for slot in self.slots:
            if slot.live:
                try:
                    slot.conn.send({"type": "stop"})
                except (OSError, ValueError, BrokenPipeError):
                    pass

    # -- message handling ----------------------------------------------
    def _merge_metrics(self, slot: _Slot,
                       snapshot: Optional[List[Dict[str, Any]]]) -> None:
        if not snapshot or not self.tm.enabled:
            return
        delta = diff_snapshots(slot.prev_metrics, snapshot)
        slot.prev_metrics = snapshot
        if delta:
            # restore() bypasses the journal's metric-delta hook — the
            # worker already journalled its own deltas in its epoch, so
            # the books sum once across epochs.
            self.tm.metrics.restore(delta)

    def _handle_message(self, slot: _Slot,
                        message: Dict[str, Any]) -> None:
        slot.last_seen = time.monotonic()
        kind = message.get("type")
        self._merge_metrics(slot, message.get("metrics"))
        if kind == "resolution":
            self.broker.handle_resolution(message)
        elif kind == "fault_fired":
            index = int(message["rule"])
            self.fault_spent[index] = self.fault_spent.get(index, 0) + 1
        elif kind in ("drained", "stopped"):
            slot.clean_exit = True
        elif kind == "fatal":
            self.report.errors.append(
                f"worker {slot.owner}: {message.get('error')}")
        # "ready" / "heartbeat": the last_seen update above is the deal.

    def _drain_conn(self, slot: _Slot) -> bool:
        """Pump a slot's pipe; False when the pipe reached EOF."""
        while True:
            try:
                if not slot.conn.poll():
                    return True
                message = slot.conn.recv()
            except (EOFError, OSError):
                return False
            if isinstance(message, dict):
                self._handle_message(slot, message)

    # -- the ladder ------------------------------------------------------
    def _check_heartbeats(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            if not slot.live or slot.clean_exit:
                continue
            if now - slot.last_seen > self.heartbeat_deadline:
                self.report.heartbeats_missed += 1
                self.report.workers_killed += 1
                self.tm.metrics.counter("proc_heartbeats_missed").inc()
                self.tm.metrics.counter("proc_workers_killed").inc()
                self.tm.journal.emit("proc_heartbeat_miss",
                                     slot=slot.index, owner=slot.owner,
                                     silent_seconds=round(
                                         now - slot.last_seen, 3))
                self.tm.journal.emit("proc_kill", slot=slot.index,
                                     owner=slot.owner,
                                     pid=slot.proc.pid)
                try:
                    os.kill(slot.proc.pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass

    def _reap(self, slot: _Slot) -> None:
        """A worker process is gone: drain, settle, release, respawn."""
        self._drain_conn(slot)
        slot.proc.join(timeout=5.0)
        exitcode = slot.proc.exitcode
        try:
            slot.conn.close()
        except OSError:
            pass
        slot.proc = None
        slot.conn = None
        if slot.clean_exit:
            slot.finished = True
            return
        # Abnormal death. Its shipped-but-buffered finals must land
        # before the lease release would requeue (and later void) them.
        slot.deaths += 1
        self.report.worker_deaths += 1
        self.tm.metrics.counter("proc_worker_deaths").inc()
        self.tm.journal.emit("proc_death", slot=slot.index,
                             owner=slot.owner, exitcode=exitcode,
                             deaths=slot.deaths)
        self.broker.force_owner(slot.owner)
        self.report.reclaimed += record_reclaim(
            self.tm, slot.owner, self.queue.release_owner(slot.owner),
            self.broker.handle_resolution)
        if self._stop_sent:
            return
        if slot.deaths > self.respawn_limit:
            self._shrink(slot)
            return
        backoff = min(self.respawn_backoff * (2 ** (slot.deaths - 1)),
                      60.0)
        slot.next_respawn_at = time.monotonic() + backoff

    def _shrink(self, slot: _Slot) -> None:
        slot.retired = True
        slot.next_respawn_at = None
        self.report.pool_shrinks += 1
        self.tm.metrics.counter("proc_pool_shrinks").inc()
        self.tm.journal.emit("proc_shrink", slot=slot.index,
                             owner=slot.owner, deaths=slot.deaths)

    def _try_respawns(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            if slot.live or slot.retired or slot.finished \
                    or slot.next_respawn_at is None \
                    or now < slot.next_respawn_at:
                continue
            rule = None
            if self.fault_plan is not None:
                rule = self.fault_plan.check("proc.respawn",
                                             f"slot-{slot.index}")
            if rule is not None and rule.fault == "respawn_failure":
                # The respawn attempt itself failed: one more rung down
                # the crash-loop ladder.
                slot.deaths += 1
                self.tm.journal.emit("proc_respawn_failed",
                                     slot=slot.index, owner=slot.owner,
                                     deaths=slot.deaths)
                if slot.deaths > self.respawn_limit:
                    self._shrink(slot)
                else:
                    backoff = min(self.respawn_backoff
                                  * (2 ** (slot.deaths - 1)), 60.0)
                    slot.next_respawn_at = time.monotonic() + backoff
                continue
            self._spawn(slot, respawn=True)

    def _reclaim_expired(self) -> None:
        now = time.monotonic()
        if now - self._last_reclaim < self.reclaim_interval:
            return
        self._last_reclaim = now
        self.report.reclaimed += record_reclaim(
            self.tm, "supervisor", self.queue.reclaim_expired(),
            self.broker.handle_resolution)

    def _publish_depth(self) -> None:
        for state, value in self.queue.counts().items():
            self.tm.metrics.gauge("sched_queue_depth",
                                  state=state).set(value)

    # -- main loop -----------------------------------------------------
    def run(self, stop_after_jobs: Optional[int] = None
            ) -> ProcPoolReport:
        if stop_after_jobs is not None:
            # Split the checkpoint budget across slots: workers ship
            # resolutions fire-and-forget, so the stop broadcast below
            # can lose the race on a fast queue — the worker-side claim
            # cap is what guarantees the crawl actually checkpoints.
            self._claim_budget = max(
                1, -(-stop_after_jobs // len(self.slots)))
        for slot in self.slots:
            self._spawn(slot)
        try:
            while True:
                conns = [slot.conn for slot in self.slots if slot.live]
                if conns:
                    for conn in _conn_wait(conns, timeout=0.05):
                        slot = next(s for s in self.slots
                                    if s.conn is conn)
                        if not self._drain_conn(slot):
                            # EOF: the process is gone (or going).
                            self._reap(slot)
                self._check_heartbeats()
                for slot in self.slots:
                    if slot.live and not slot.proc.is_alive():
                        self._reap(slot)
                self._try_respawns()
                self._reclaim_expired()
                if stop_after_jobs is not None and not self._stop_sent \
                        and self.broker.tally.completed \
                        + self.broker.tally.failed >= stop_after_jobs:
                    self._broadcast_stop()
                if not any(slot.live or slot.active
                           for slot in self.slots):
                    break
                if not conns:
                    # Nothing to wait on (all slots between death and
                    # respawn) — don't busy-spin the backoff away.
                    time.sleep(0.02)
        except KeyboardInterrupt:
            self.report.interrupted = True
            self._broadcast_stop()
            deadline = time.monotonic() + 5.0
            for slot in self.slots:
                if slot.live:
                    slot.proc.join(timeout=max(
                        0.1, deadline - time.monotonic()))
                    if slot.proc.is_alive():
                        slot.proc.terminate()
                        slot.proc.join(timeout=2.0)
                    self._reap(slot)
        # Apply whatever finals are still buffered, in job-id order;
        # unresolved jobs stay pending/leased and --resume re-runs them.
        self.broker.flush()
        self._publish_depth()
        tally = self.broker.tally
        self.report.completed = tally.completed
        self.report.failed = tally.failed
        self.report.retried = tally.retried
        self.report.lease_lost = tally.lease_lost
        self.report.errors.extend(tally.errors)
        outstanding = self.queue.outstanding()
        if outstanding and not self.report.interrupted:
            # Every slot retired or stopped with work left: the crawl
            # aborts as interrupted rather than spinning forever —
            # --resume picks the remainder up.
            self.report.interrupted = True
            self.tm.journal.emit("proc_abort",
                                 outstanding=outstanding,
                                 shrinks=self.report.pool_shrinks)
        return self.report


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_process_crawl(manager: Any, urls: List[str], *,
                      queue_path: str, worker_procs: int,
                      web: str = "lab", site_count: int = 0,
                      world_seed: int = 7, resume: bool = False,
                      stop_after_jobs: Optional[int] = None,
                      max_attempts: int = 2,
                      lease_seconds: float = 300.0,
                      journal_dir: Optional[str] = None,
                      heartbeat_seconds: float = 1.0,
                      heartbeat_deadline: Optional[float] = None,
                      respawn_limit: Optional[int] = None,
                      respawn_backoff: float = 0.5) -> Any:
    """Drain *urls* through *worker_procs* supervised processes.

    The coordinator's *manager* owns the crawl database and the bundle
    it records (its browsers never visit anything — slot 0's params
    are cloned into every worker, exactly the slot a 1-worker inline
    crawl would use); a replaying *manager*'s bundle is replayed by
    every worker. Returns the same
    :class:`~repro.sched.scheduler.CrawlReport` as
    ``TaskManager.crawl_scheduled``.
    """
    from repro.sched.scheduler import CrawlScheduler

    if queue_path == ":memory:":
        raise ValueError(
            "--worker-procs requires a file-backed queue "
            "(worker processes cannot share an in-memory queue)")
    mp = manager.manager_params
    scheduler = CrawlScheduler(
        queue_path, resume=resume, seed=mp.seed,
        max_attempts=max_attempts, lease_seconds=lease_seconds,
        telemetry=manager.telemetry, clock=WallClock())
    try:
        scheduler.enqueue(urls)
        broker = CrawlBroker(manager, scheduler.queue, manager.telemetry)
        # Serialize the *user* plan, not the built one: the worker's
        # TaskManager re-appends the legacy crash_probability rule
        # itself, so serializing manager.fault_plan would double it.
        plan_dict = mp.fault_plan.to_dict() \
            if mp.fault_plan is not None else None
        worker_mp = replace(mp, fault_plan=None)
        browser_params = manager.browsers[0].params
        bundle = getattr(manager.network, "bundle", None)

        def make_spec(slot: int, generation: int,
                      fault_spent: Dict[int, int]) -> WorkerSpec:
            return WorkerSpec(
                kind="crawl", slot=slot,
                owner=f"proc-{slot}-g{generation}",
                queue_path=queue_path, seed=mp.seed,
                manager_params=worker_mp,
                browser_params=browser_params, web=web,
                site_count=site_count, world_seed=world_seed,
                fault_plan=plan_dict, fault_spent=fault_spent,
                max_attempts=max_attempts,
                lease_seconds=lease_seconds, journal_dir=journal_dir,
                heartbeat_seconds=heartbeat_seconds,
                bundle_path=None if bundle is None else bundle.path,
                capture_bundles=manager.capture_bundles)

        pool = ProcessPool(scheduler.queue, broker, make_spec,
                           worker_procs, telemetry=manager.telemetry,
                           fault_plan=manager.fault_plan,
                           heartbeat_deadline=heartbeat_deadline,
                           respawn_limit=respawn_limit,
                           respawn_backoff=respawn_backoff)
        return scheduler.report(
            pool.run(stop_after_jobs=stop_after_jobs))
    finally:
        scheduler.close()


def run_process_scan(pipeline: Any, scheduler: Any, broker: Broker, *,
                     queue_path: str, worker_procs: int,
                     world_seed: int = 7,
                     visit_subpages: bool = True,
                     fault_plan: Optional[Any] = None,
                     journal_dir: Optional[str] = None,
                     heartbeat_seconds: float = 1.0,
                     heartbeat_deadline: Optional[float] = None,
                     respawn_limit: Optional[int] = None,
                     respawn_backoff: float = 0.5) -> Any:
    """Process-pool backend for :meth:`ScanPipeline.run`.

    The caller (the pipeline) owns the scheduler and the
    :class:`~repro.core.scan.pipeline.ScanBroker` every worker's
    resolutions settle through — and any bundle it records or
    replays; this function owns the workers.
    """
    telemetry = pipeline.telemetry
    plan_dict = fault_plan.to_dict() if fault_plan is not None else None
    bundle = getattr(pipeline.web, "bundle", None)

    def make_spec(slot: int, generation: int,
                  fault_spent: Dict[int, int]) -> WorkerSpec:
        return WorkerSpec(
            kind="scan", slot=slot,
            owner=f"proc-{slot}-g{generation}",
            queue_path=queue_path, seed=pipeline.seed,
            web="tranco", site_count=pipeline.web.site_count,
            world_seed=world_seed, fault_plan=plan_dict,
            fault_spent=fault_spent, max_attempts=1,
            journal_dir=journal_dir,
            heartbeat_seconds=heartbeat_seconds,
            scan_client_id=pipeline.client_id,
            scan_dwell=pipeline.dwell,
            scan_max_subpages=pipeline.max_subpages,
            scan_visit_subpages=visit_subpages,
            bundle_path=None if bundle is None else bundle.path,
            capture_bundles=pipeline.capture_bundles)

    pool = ProcessPool(scheduler.queue, broker, make_spec, worker_procs,
                       telemetry=telemetry, fault_plan=fault_plan,
                       heartbeat_deadline=heartbeat_deadline,
                       respawn_limit=respawn_limit,
                       respawn_backoff=respawn_backoff)
    return pool.run()


