"""A fully telemetered crawl, end to end.

``run_telemetry_crawl`` wires a :class:`Telemetry` into a
:class:`TaskManager`, drives it over N sites (the blank lab site by
default, or a synthetic Tranco web), persists the telemetry snapshot
into the crawl database, and hands everything back for reporting. This
is what ``python -m repro stats`` runs when pointed at no existing
database, and what the integration tests and the overhead benchmark
build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.obs.journal import NULL_JOURNAL, Journal
from repro.obs.profiler import ScriptProfiler, install_profiler
from repro.obs.telemetry import Telemetry
from repro.openwpm.config import BrowserParams, ManagerParams
from repro.openwpm.task_manager import TaskManager


@dataclass
class TelemetryCrawlResult:
    """The live handles from one instrumented crawl.

    The manager (and its in-memory database) stays open so callers can
    build reports against it; call :meth:`close` when done.
    """

    manager: TaskManager
    telemetry: Telemetry
    urls: List[str] = field(default_factory=list)
    results: List[object] = field(default_factory=list)
    #: The scheduler's CrawlReport when the crawl ran on worker threads
    #: (``workers`` given); ``None`` for the legacy sequential path.
    report: Optional[object] = None
    #: The crawl's flight recorder (``NULL_JOURNAL`` when not requested).
    journal: Any = NULL_JOURNAL
    #: The JS-engine profiler, when profiling was requested.
    profiler: Optional[ScriptProfiler] = None
    #: The bundle recorder, when ``record_dir`` was given (already
    #: finalized by the runner; kept for inspection).
    recorder: Optional[Any] = None
    #: The source bundle, when this crawl replayed one.
    bundle: Optional[Any] = None

    @property
    def storage(self):
        return self.manager.storage

    def close(self) -> None:
        self.manager.close()
        self.journal.close()
        if self.bundle is not None:
            self.bundle.close()


def _lab_urls(site_count: int) -> List[str]:
    return [f"https://lab.test/site-{i:05d}" for i in range(site_count)]


def run_telemetry_crawl(site_count: int = 1000, seed: int = 7,
                        database_path: str = ":memory:",
                        crash_probability: float = 0.05,
                        browsers: int = 2, dwell: float = 1.0,
                        js_instrument: bool = False,
                        web: str = "lab",
                        telemetry: Optional[Telemetry] = None,
                        workers: Optional[int] = None,
                        worker_procs: Optional[int] = None,
                        heartbeat_seconds: float = 1.0,
                        heartbeat_deadline: Optional[float] = None,
                        respawn_limit: Optional[int] = None,
                        respawn_backoff: float = 0.5,
                        queue_path: str = ":memory:",
                        resume: bool = False,
                        urls: Optional[List[str]] = None,
                        stop_after_jobs: Optional[int] = None,
                        fault_plan: Optional[object] = None,
                        stage_deadline: Optional[float] = None,
                        quarantine_after: Optional[int] = None,
                        crash_loop_threshold: Optional[int] = None,
                        max_attempts: int = 2,
                        lease_seconds: float = 300.0,
                        journal_dir: Optional[str] = None,
                        profile: bool = False,
                        record_dir: Optional[str] = None,
                        replay_dir: Optional[str] = None
                        ) -> TelemetryCrawlResult:
    """Crawl *site_count* sites with full telemetry enabled.

    ``web`` selects the substrate: ``"lab"`` serves distinct paths of
    the blank lab site (fast — the 1K-site reconciliation check runs in
    seconds), ``"tranco"`` builds the synthetic web and visits the top
    ranked domains (slow, full page machinery). ``js_instrument``
    defaults off for the lab crawl because instrumenting every lab page
    dominates runtime; HTTP and cookie instruments still exercise the
    record-accounting path.

    ``workers=None`` keeps the legacy sequential round-robin crawl.
    Any integer routes the crawl through the scheduler instead — one
    worker per browser slot, each slot a clone of browser 0 (so the
    tables are the same at any worker count), with
    ``queue_path``/``resume`` exposing the persistent queue and
    checkpoint/resume (``python -m repro crawl``). An explicit ``urls``
    list overrides the generated one.

    ``worker_procs`` routes the crawl through the **process** pool
    instead (:mod:`repro.sched.procpool`): N spawned worker processes
    claim from the shared file-backed queue and ship visit records to
    this process's storage broker, under the heartbeat → SIGKILL →
    respawn → shrink supervision ladder tuned by
    ``heartbeat_seconds`` / ``heartbeat_deadline`` /
    ``respawn_limit`` / ``respawn_backoff``. Mutually exclusive with
    ``workers`` and with record/replay (bundle hooks live on the
    coordinator's network object, which workers never touch).

    ``fault_plan`` / ``stage_deadline`` / ``quarantine_after`` /
    ``crash_loop_threshold`` wire the fault-injection plan and its
    defenses (watchdog, circuit breaker, crash-loop cooldown) straight
    into the manager — the chaos harness entry point.

    ``journal_dir`` turns on the flight recorder (one JSONL event file
    per worker under that directory); ``profile=True`` installs the
    JS-engine profiler and journals its per-script/per-function op
    aggregates at crawl end.

    ``record_dir`` archives every visit into an execution bundle at
    that path; ``replay_dir`` serves the whole crawl from an existing
    bundle instead of a live web (``urls``/``site_count`` are then
    taken from the bundle). The two compose: replaying with
    ``record_dir`` set re-records the replay, which is how ``repro
    fidelity`` gets its comparison bundle.
    """
    if worker_procs is not None:
        if workers is not None:
            raise ValueError(
                "workers and worker_procs are mutually exclusive")
        if record_dir is not None or replay_dir is not None:
            raise ValueError(
                "worker_procs cannot record or replay bundles: the "
                "bundle hooks attach to the coordinator's network, "
                "which worker processes never touch")
    telemetry = telemetry if telemetry is not None else Telemetry()
    journal: Any = NULL_JOURNAL
    if journal_dir is not None and telemetry.enabled:
        # Attached before anything runs — and before any resume
        # restore() below — so every metric increment of this run is
        # journalled and the delta-sum reconciliation stays exact.
        journal = Journal(journal_dir, telemetry.clock)
        telemetry.attach_journal(journal)
    profiler: Optional[ScriptProfiler] = None
    previous_profiler = None
    if profile:
        profiler = ScriptProfiler()
        previous_profiler = install_profiler(profiler)
    bundle = None
    if replay_dir is not None:
        from repro.bundles import Bundle, ReplayNetwork

        bundle = Bundle(replay_dir)
        network = ReplayNetwork(bundle, telemetry=telemetry)
        if urls is None:
            urls = list(bundle.sites())
    elif web == "tranco":
        from repro.web import build_world

        world = build_world(site_count=site_count, seed=seed)
        network = world.network
        if urls is None:
            urls = world.front_urls(site_count)
    else:
        from repro.core.lab import make_lab_network

        network = make_lab_network()
        if urls is None:
            urls = _lab_urls(site_count)

    recorder = None
    if record_dir is not None:
        from repro.bundles import BundleRecorder

        recorder = BundleRecorder(
            record_dir, kind="crawl",
            params={"site_count": site_count, "seed": seed,
                    "browsers": browsers, "dwell": dwell,
                    "js_instrument": js_instrument, "web": web,
                    "replay_of": replay_dir},
            sites=urls, telemetry=telemetry)
        network.recorder = recorder

    # A scheduled crawl runs browser 0 in every worker slot, as each
    # --worker-procs worker does: which worker visited a site is
    # scheduling, and must not show in the crawl data.
    slots = [0] * browsers if workers is not None else range(browsers)
    manager = TaskManager(
        ManagerParams(num_browsers=browsers,
                      database_path=database_path,
                      crash_probability=crash_probability,
                      fault_plan=fault_plan,
                      stage_deadline_seconds=stage_deadline,
                      quarantine_after=quarantine_after,
                      crash_loop_threshold=crash_loop_threshold,
                      seed=seed),
        [BrowserParams(browser_id=i, seed=seed + i, dwell_time=dwell,
                       js_instrument=js_instrument,
                       save_content=None if web == "lab" else "script")
         for i in slots],
        network, telemetry=telemetry)
    manager.recorder = recorder
    report = None
    results: List[object] = []
    try:
        if worker_procs is not None:
            from repro.sched.procpool import (
                DEFAULT_HEARTBEAT_DEADLINE,
                DEFAULT_RESPAWN_LIMIT,
                run_process_crawl,
            )

            if resume and telemetry.enabled:
                telemetry.metrics.restore(
                    manager.storage.telemetry_metrics())
            report = run_process_crawl(
                manager, urls, queue_path=queue_path,
                worker_procs=worker_procs, web=web,
                site_count=site_count, world_seed=seed,
                resume=resume, stop_after_jobs=stop_after_jobs,
                max_attempts=max_attempts,
                lease_seconds=lease_seconds, journal_dir=journal_dir,
                heartbeat_seconds=heartbeat_seconds,
                heartbeat_deadline=heartbeat_deadline
                if heartbeat_deadline is not None
                else DEFAULT_HEARTBEAT_DEADLINE,
                respawn_limit=respawn_limit
                if respawn_limit is not None
                else DEFAULT_RESPAWN_LIMIT,
                respawn_backoff=respawn_backoff)
        elif workers is None:
            results = manager.crawl(urls)
        else:
            if resume and telemetry.enabled:
                # Carry the previous runs' persisted counters forward
                # so the final snapshot stays cumulative over the whole
                # database — otherwise a resumed crawl's books can
                # never balance.
                telemetry.metrics.restore(
                    manager.storage.telemetry_metrics())
            report = manager.crawl_scheduled(
                urls, workers=workers, queue_path=queue_path,
                resume=resume, stop_after_jobs=stop_after_jobs,
                max_attempts=max_attempts, lease_seconds=lease_seconds)
    finally:
        if profile:
            install_profiler(previous_profiler)
    if profiler is not None:
        for entry in profiler.hot_scripts():
            journal.emit("profile_script", **entry)
        for entry in profiler.hot_functions():
            journal.emit("profile_function", **entry)
    if recorder is not None:
        # A bundle is only marked complete when every site's visits
        # were archived; anything less stays ``status: recording`` and
        # replay refuses it with the missing sites named.
        drained = report.drained if report is not None else True
        recorder.close(complete=bool(drained)
                       and not manager.failed_sites)
    journal.flush()
    # Snapshot now (close() would too, but callers report before closing).
    manager.storage.persist_telemetry(telemetry.snapshot())
    return TelemetryCrawlResult(manager=manager, telemetry=telemetry,
                                urls=urls, results=results, report=report,
                                journal=journal, profiler=profiler,
                                recorder=recorder, bundle=bundle)
