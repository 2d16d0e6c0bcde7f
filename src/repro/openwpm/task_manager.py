"""Task manager: the framework layer orchestrating browsers.

Reproduces the orchestration responsibilities Fig. 1 assigns to the
framework: owning N browsers, distributing command sequences, watching
for crashes, restarting failed browsers, and funnelling everything into
one storage controller.

Fault injection and supervision (:mod:`repro.faults`): the manager
builds an effective :class:`~repro.faults.FaultPlan` (the legacy
``crash_probability`` Bernoulli becomes a ``crash`` rule drawing from
the manager RNG, so old crawls stay bit-identical), wires it into the
network and storage layers, and defends with a per-stage
:class:`~repro.faults.Watchdog`, a per-site
:class:`~repro.faults.CircuitBreaker` (quarantine), and
:class:`~repro.faults.CrashLoopDetector` browser-slot cooldowns.
"""

from __future__ import annotations

import random
import sqlite3
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.browser.browser import Browser, VisitResult
from repro.browser.profiles import openwpm_profile
from repro.faults.plan import (
    DEFAULT_HANG_SECONDS,
    FaultPlan,
    FaultRule,
    NetworkFault,
)
from repro.faults.supervision import (
    CircuitBreaker,
    CrashLoopDetector,
    VisitDeadlineExceeded,
    Watchdog,
)
from repro.net.network import Network
from repro.obs.telemetry import Telemetry, coalesce
from repro.openwpm.config import BrowserParams, ManagerParams
from repro.openwpm.extension import OpenWPMExtension
from repro.openwpm.storage import StorageController, VisitRecorder
from repro.sched.jobs import COMPLETED, FAILED, PENDING
from repro.sched.settle import COMPLETE, LOST, RETRY, TERMINAL

#: Visit table name -> records_written instrument label.
_DISCARD_INSTRUMENTS = {
    "javascript": "js",
    "http_requests": "http",
    "javascript_cookies": "cookie",
}


#: Ledger operations :func:`visit_ledger_ops` returns, with their
#: argument: a give-up reason, or None.
WRITE = "write"
DROP = "drop"
GIVE_UP = "give_up"
QUARANTINE = "quarantine"
CLOSE_BREAKER = "close_breaker"


def visit_ledger_ops(state: str, error: str, gave_up: bool,
                     tripped: bool, quarantined: bool,
                     completed_elsewhere: bool) -> List[Tuple[str, Any]]:
    """The crawl ledgers' answer to one settled job attempt.

    An attempt's rows travel as one envelope: its visits and crash
    rows, plus a ``failed_visits`` row if it gave the site up
    (*gave_up*) or a ``quarantined_sites`` row if it tripped the
    circuit breaker (*tripped*). Other inputs: the settled *state*
    (``completed``, ``failed``, ``pending`` or ``lost``) and *error*;
    whether the breaker is open on the site now (*quarantined*); and —
    for a lost attempt — whether another worker completed the job.
    Every settled site must end in exactly one of ``site_visits``,
    ``failed_visits`` or ``quarantined_sites``:

    * completed — the envelope lands; a breaker a voided sibling
      attempt tripped is stale and closes;
    * failed — the envelope lands, and if it carries no ledger row one
      is added: the quarantine row when the breaker is open (the
      attempt that tripped it was voided and its row dropped), a
      given-up row otherwise;
    * pending — the envelope lands; the re-run settles the site;
    * lost — the verdict is void: the envelope is dropped, and if the
      job was completed elsewhere a breaker this attempt tripped is
      stale too.
    """
    if state == LOST:
        ops: List[Tuple[str, Any]] = [(DROP, None)]
        if quarantined and completed_elsewhere:
            ops.append((CLOSE_BREAKER, None))
        return ops
    ops = [(WRITE, None)]
    if state == COMPLETED and quarantined:
        ops.append((CLOSE_BREAKER, None))
    elif state == FAILED and not (gave_up or tripped):
        ops.append((QUARANTINE, None) if quarantined
                   else (GIVE_UP, error))
    return ops


class BrowserCrashed(RuntimeError):
    """Raised inside a visit when fault injection fires."""


@dataclass
class CommandSequence:
    """A unit of crawling work: visit a site, then run extra commands.

    Retry behaviour is governed by ``manager_params.failure_limit``.
    """

    url: str
    #: Extra callbacks run with (browser, visit_result) after the GET.
    callbacks: List[Callable[[Browser, VisitResult], None]] = field(
        default_factory=list)
    dwell_time: Optional[float] = None


@dataclass
class ManagedBrowser:
    """One browser slot with crash/restart bookkeeping."""

    browser_id: int
    params: BrowserParams
    browser: Browser
    extension: OpenWPMExtension
    #: The slot's own recorder: everything its visits record is held
    #: here and leaves as one envelope per job attempt.
    store: VisitRecorder
    crash_count: int = 0
    #: Index into the slot's JS-instrument record stream at visit
    #: start; the slice from here is the visit's bundle trace.
    bundle_trace_mark: int = 0


class TaskManager:
    """Drives browsers over a list of sites with crash recovery.

    Storage: each browser slot records into its own
    :class:`~repro.openwpm.storage.VisitRecorder`
    (``ManagedBrowser.store``), which opens no database; ``storage`` is
    the crawl database, and only :meth:`settle_visit` writes it — one
    envelope per job attempt, called by a
    :class:`~repro.sched.procpool.CrawlBroker` in scheduled crawls and
    directly by ``crawl()``/``get()``.

    Thread safety — ``execute_command_sequence`` runs concurrently on
    pool worker threads (one pinned browser slot each):

    * thread-safe members: ``storage``, ``telemetry``, ``fault_plan``,
      the circuit breaker and crash-loop detector (all internally
      locked), and ``failed_sites`` (guarded by
      ``_failed_sites_lock``);
    * single-thread only: ``crawl()``/``get()`` (the sequential path,
      including ``_next_slot`` round-robin) and ``close()``.
    """

    def __init__(self, manager_params: ManagerParams,
                 browser_params: List[BrowserParams],
                 network: Network,
                 js_instrument_factory: Optional[Callable[..., Any]] = None,
                 telemetry: Optional[Telemetry] = None
                 ) -> None:
        self.manager_params = manager_params
        self.network = network
        self.storage = StorageController(manager_params.database_path)
        self.telemetry = coalesce(telemetry)
        self._rng = random.Random(manager_params.seed)
        self._js_instrument_factory = js_instrument_factory
        self.browsers: List[ManagedBrowser] = [
            self._launch_browser(params, VisitRecorder())
            for params in browser_params]
        self._next_slot = 0
        self.failed_sites: List[str] = []
        self._failed_sites_lock = threading.Lock()
        #: Optional :class:`repro.bundles.BundleRecorder`; when set,
        #: every visit is archived into an execution bundle (the
        #: network-side hook is installed by the crawl runner).
        self.recorder: Optional[Any] = None

        self.fault_plan = self._build_fault_plan()
        if self.fault_plan is not None:
            self.fault_plan.bind_clock(self.telemetry.clock)
            for slot in self.browsers:
                slot.store.fault_plan = self.fault_plan
            self.network.fault_plan = self.fault_plan
            # Flight recorder: journal every injection. The journal is
            # read through the telemetry facade at fire time, so a
            # journal attached after construction still gets events.
            self.fault_plan.on_trigger = self._journal_fault

        self._watchdog: Optional[Watchdog] = None
        if manager_params.stage_deadline_seconds is not None \
                or manager_params.stage_deadlines:
            self._watchdog = Watchdog(
                self.telemetry.clock,
                default_deadline=manager_params.stage_deadline_seconds,
                stage_deadlines=manager_params.stage_deadlines)
            self._watchdog.on_abort = self._journal_watchdog_abort

        self._breaker: Optional[CircuitBreaker] = None
        if manager_params.quarantine_after:
            self._breaker = CircuitBreaker(manager_params.quarantine_after)
            # A reopened crawl database remembers its quarantines.
            for row in self.storage.quarantined_rows():
                self._breaker.force_open(row["site_url"])

        self._crash_loop: Optional[CrashLoopDetector] = None
        if manager_params.crash_loop_threshold:
            self._crash_loop = CrashLoopDetector(
                manager_params.crash_loop_threshold,
                window_seconds=manager_params.crash_loop_window_seconds,
                cooldown_seconds=manager_params.crash_loop_cooldown_seconds)

    def _build_fault_plan(self) -> Optional[FaultPlan]:
        plan = self.manager_params.fault_plan
        probability = self.manager_params.crash_probability
        if probability > 0:
            if plan is None:
                plan = FaultPlan(seed=self.manager_params.seed)
            # The legacy Bernoulli, drawing from the manager RNG at the
            # exact position the old inline check drew — bit-identical.
            plan.add_rule(FaultRule(fault="crash", point="visit.start",
                                    probability=probability),
                          rng=self._rng)
        return plan

    # ------------------------------------------------------------------
    def _launch_browser(self, params: BrowserParams,
                        store: VisitRecorder) -> ManagedBrowser:
        profile = openwpm_profile(
            params.os_name,
            "regular" if params.display_mode == "native"
            else params.display_mode,
            window_size=params.window_size,
            window_position=params.window_position)
        # Each browser writes into its slot's recorder through a handle
        # pinning its browser_id.
        storage_handle = store.handle(params.browser_id)
        js_instrument = None
        if self._js_instrument_factory is not None and params.js_instrument:
            js_instrument = self._js_instrument_factory(
                storage=storage_handle)
        extension = OpenWPMExtension(params, storage=storage_handle,
                                     js_instrument=js_instrument,
                                     telemetry=self.telemetry)
        browser = Browser(profile, self.network,
                          client_id=f"openwpm-{params.browser_id}",
                          extension=extension, seed=params.seed)
        return ManagedBrowser(browser_id=params.browser_id, params=params,
                              browser=browser, extension=extension,
                              store=store)

    def _restart_browser(self, slot: ManagedBrowser,
                         site_url: str = "") -> None:
        """Replace a crashed browser, preserving its identity and params.

        ``site_url`` is the URL being visited when the browser died, so
        the restart row in ``crash_history`` names the responsible site.
        A slot caught crash-looping cools down (virtual time) before
        the relaunch instead of hot-looping replacements.
        """
        slot.store.record_crash(slot.browser_id, site_url, "restart")
        self.telemetry.metrics.counter("browser_restarts").inc()
        if self._crash_loop is not None:
            cooldown = self._crash_loop.on_restart(
                slot.browser_id, self.telemetry.clock.peek())
            if cooldown > 0:
                self.telemetry.metrics.counter("browser_cooldowns").inc()
                self.telemetry.clock.advance(cooldown)
        replacement = self._launch_browser(slot.params, slot.store)
        slot.browser = replacement.browser
        slot.extension = replacement.extension
        slot.crash_count += 1
        self.telemetry.metrics.gauge(
            "browser_crash_count",
            browser=str(slot.browser_id)).set(slot.crash_count)

    # ------------------------------------------------------------------
    # Fault-injection / supervision plumbing
    # ------------------------------------------------------------------
    def _journal_fault(self, point: str, url: str, rule_index: int,
                       fault: str) -> None:
        self.telemetry.journal.emit("fault", point=point, url=url,
                                    rule=rule_index, fault=fault)

    def _journal_watchdog_abort(self, exc: VisitDeadlineExceeded) -> None:
        self.telemetry.journal.emit(
            "watchdog_abort", url=exc.url, stage=exc.stage,
            elapsed=exc.elapsed, deadline=exc.deadline)

    def _inject(self, point: str, url: str) -> None:
        """Consult the fault plan at a visit choke point."""
        plan = self.fault_plan
        if plan is None:
            return
        rule = plan.check(point, url=url)
        if rule is None:
            return
        if rule.fault == "crash":
            raise BrowserCrashed(url)
        if rule.fault == "hang":
            # The visit stalls: virtual time burns and only a watchdog
            # deadline can rescue the slot.
            plan.burn(rule.seconds or DEFAULT_HANG_SECONDS)

    def is_quarantined(self, url: str) -> bool:
        return self._breaker is not None and self._breaker.is_open(url)

    def _trip_breaker(self, slot: ManagedBrowser, url: str,
                      visit_span: Any, why: str) -> bool:
        """Count one site failure; True when the site just got
        quarantined (the visit ends here with no further retries)."""
        if self._breaker is None:
            return False
        if not self._breaker.record_failure(url):
            return False
        slot.store.record_quarantine(
            url, self._breaker.failures(url), why,
            self.telemetry.clock.peek())
        self._book_quarantine(url, why)
        self.telemetry.metrics.counter("visits_quarantined").inc()
        visit_span.set_attribute("outcome", "quarantined")
        visit_span.set_status("error:quarantined")
        return True

    def _book_quarantine(self, url: str, why: str) -> None:
        tm = self.telemetry
        tm.journal.emit("site_quarantined", url=url,
                        failures=self._failures(url), why=why)
        tm.metrics.counter("sites_quarantined").inc()

    def _failures(self, url: str) -> int:
        return self._breaker.failures(url) if self._breaker else 0

    def _record_given_up(self, slot: ManagedBrowser, url: str,
                         attempts: int, reason: str) -> None:
        """The crawl-loss ledger entry for a site given up on."""
        slot.store.record_failed_visit(slot.browser_id, url, attempts,
                                       reason)
        self._book_given_up(url, attempts, reason)

    def _book_given_up(self, url: str, attempts: int, reason: str) -> None:
        self.telemetry.journal.emit("visit_given_up", url=url,
                                    attempts=attempts, reason=reason)
        self.telemetry.metrics.counter("visits_given_up").inc()

    def settle_visit(self, message: Dict[str, Any], state: str,
                     completed_elsewhere: bool = False) -> None:
        """Bring the crawl database in line with one settled attempt.

        *message* is the attempt's resolution (:meth:`run_job`: outcome,
        envelope, breaker state; a reclaimed job's carries no
        envelope). The rules are :func:`visit_ledger_ops`; this applies
        them, landing a standing verdict's envelope — and the ledger
        row its verdict adds — in one crawl-database transaction, or
        dropping a voided one. Nothing written is ever taken back.
        """
        url = message["site_url"]
        ledger = message.get("ledger", {})
        failed = list(ledger.get("failed_visits", ()))
        quarantine = list(ledger.get("quarantined_sites", ()))
        ops = dict(visit_ledger_ops(
            state, message["error"], bool(failed), bool(quarantine),
            message.get("quarantined", self.is_quarantined(url)),
            completed_elsewhere))
        if DROP in ops:
            self._count_dropped(message)
        else:
            if GIVE_UP in ops:
                failed.append((message.get("browser_id", 0), url,
                               message["attempts"], ops[GIVE_UP]))
            if QUARANTINE in ops:
                quarantine.append((url, message.get(
                    "failures", self._failures(url)), "breaker_open",
                    self.telemetry.clock.peek()))
            landed = self.storage.record_envelope(
                message.get("visits", []), message.get("content", []),
                {"crash_history": ledger.get("crash_history", []),
                 "failed_visits": failed, "quarantined_sites": quarantine})
            if GIVE_UP in ops:
                self._book_given_up(url, message["attempts"], ops[GIVE_UP])
            if QUARANTINE in ops and landed:
                self._book_quarantine(url, "breaker_open")
            if failed:
                with self._failed_sites_lock:
                    self.failed_sites.extend(row[1] for row in failed)
        if CLOSE_BREAKER in ops and self._breaker is not None:
            # A voided attempt tripped the breaker; its quarantine row
            # never landed and the site turned out fine.
            self._breaker.reset(url)

    def _count_dropped(self, message: Dict[str, Any]) -> None:
        """Book a voided attempt's envelope, which never reaches the
        crawl database, so every counter still reconciles."""
        tm = self.telemetry
        metrics = tm.metrics
        url = message["site_url"]
        visits = message.get("visits", [])
        ledger = message.get("ledger", {})
        crashes = sum(1 for row in ledger.get("crash_history", ())
                      if row[3] == "crash")
        tm.journal.emit("visit_discarded", url=url, visits=len(visits),
                        crashes=crashes)
        if visits:
            metrics.counter("visits_discarded").inc(len(visits))
        if crashes:
            metrics.counter("crashes_discarded").inc(crashes)
        if message["kind"] == COMPLETE:
            metrics.counter("completions_discarded").inc()
        for visit in visits:
            self._count_discarded({table: len(rows) for table, rows
                                   in visit["tables"].items()})
        given_up = len(ledger.get("failed_visits", ()))
        if given_up:
            tm.journal.emit("given_up_voided", url=url, count=given_up)
            metrics.counter("visits_given_up_voided").inc(given_up)
        quarantines = len(ledger.get("quarantined_sites", ()))
        if quarantines:
            tm.journal.emit("quarantine_voided", url=url,
                            count=quarantines)
            metrics.counter("sites_quarantined_voided").inc(quarantines)

    def _count_discarded(self, discarded: Dict[str, int]) -> None:
        for table, count in discarded.items():
            instrument = _DISCARD_INSTRUMENTS.get(table)
            if instrument is not None and count > 0:
                self.telemetry.metrics.counter(
                    "records_discarded", instrument=instrument).inc(count)

    def run_job(self, url: str, slot: ManagedBrowser,
                callbacks: Optional[List[Callable]] = None
                ) -> Dict[str, Any]:
        """Run one queue job on *slot*; returns its resolution: the
        outcome (``kind``, ``error``), the breaker state, and the
        envelope of every row the attempt recorded. Thread and process
        workers both hand this to a
        :class:`~repro.sched.procpool.CrawlBroker`."""
        try:
            result = self.execute_command_sequence(
                CommandSequence(url=url, callbacks=list(callbacks or [])),
                slot=slot, propagate_hangs=True)
            kind, error = COMPLETE, ""
            if result is None:
                # A given-up or quarantined site: its ledger row is in
                # the envelope (or added on settle) — do not burn queue
                # retries on it too.
                kind = TERMINAL
                error = "quarantined" if self.is_quarantined(url) \
                    else "failure_limit"
        except Exception as exc:
            kind, error = RETRY, repr(exc)
        return self._resolution(slot, url, kind, error)

    def _resolution(self, slot: ManagedBrowser, url: str, kind: str,
                    error: str) -> Dict[str, Any]:
        return {"kind": kind, "error": error, "site_url": url,
                "browser_id": slot.browser_id,
                "quarantined": self.is_quarantined(url),
                "failures": self._failures(url),
                **slot.store.take_envelope()}

    # ------------------------------------------------------------------
    def get(self, url: str,
            callbacks: Optional[List[Callable]] = None,
            dwell_time: Optional[float] = None) -> None:
        """Run a GET command sequence for *url*; its rows are in
        ``storage`` when this returns (or raises)."""
        slot = self._take_slot()
        try:
            self.execute_command_sequence(CommandSequence(
                url=url, callbacks=callbacks or [], dwell_time=dwell_time),
                slot=slot)
        finally:
            # No verdict to settle: the rows land as they are (unless an
            # interrupt left the visit open).
            if not slot.store.active_visits():
                self.settle_visit(
                    self._resolution(slot, url, COMPLETE, ""), PENDING)

    def _take_slot(self) -> ManagedBrowser:
        slot = self.browsers[self._next_slot]
        self._next_slot = (self._next_slot + 1) % len(self.browsers)
        return slot

    def execute_command_sequence(self, sequence: CommandSequence,
                                 slot: Optional[ManagedBrowser] = None,
                                 propagate_hangs: bool = False
                                 ) -> Optional[VisitResult]:
        """Run one command sequence with retry, supervision, accounting.

        Every call ends in exactly one outcome: a completed visit, a
        ``failed_visits`` row (retries exhausted), a quarantine (the
        circuit breaker opened for — or was already open on — the
        site), or a re-raised exception (an unexpected callback fault,
        or a watchdog abort with ``propagate_hangs=True`` — the
        scheduled path, where the queue owns the retry).
        """
        if slot is None:
            slot = self._take_slot()
        store = slot.store
        tm = self.telemetry
        journal = tm.journal
        journal.emit("visit_start", url=sequence.url,
                     browser_id=slot.browser_id)
        tm.metrics.counter("visits_attempted").inc()
        if self.is_quarantined(sequence.url):
            journal.emit("visit_quarantined", url=sequence.url,
                         reason="breaker_open")
            tm.metrics.counter("visits_quarantined").inc()
            return None
        watch = self._watchdog
        with tm.tracer.span("visit", url=sequence.url,
                            browser_id=slot.browser_id) as visit_span:
            attempts = 0
            give_up_reason = "failure_limit"
            while attempts < self.manager_params.failure_limit:
                attempts += 1
                if attempts > 1:
                    tm.metrics.counter("visits_retried").inc()
                tm.metrics.counter("visit_attempts_total").inc()
                journal.emit("visit_attempt", url=sequence.url,
                             attempt=attempts)
                try:
                    context = store.begin_visit(slot.browser_id,
                                                sequence.url)
                except sqlite3.OperationalError:
                    # Transient busy/locked before any side effect:
                    # nothing to clean up, just retry the attempt.
                    journal.emit("visit_storage_fault",
                                 url=sequence.url, attempt=attempts)
                    tm.metrics.counter("visits_storage_faults").inc()
                    give_up_reason = "storage_fault"
                    continue
                try:
                    started = watch.start() if watch else 0.0
                    self._bundle_begin(slot, sequence.url)
                    self._inject("visit.start", sequence.url)
                    dwell = sequence.dwell_time \
                        if sequence.dwell_time is not None \
                        else slot.params.dwell_time
                    self._inject("visit.page_load", sequence.url)
                    with tm.stage("page_load"):
                        result = slot.browser.visit(sequence.url,
                                                    wait=dwell)
                    if watch:
                        watch.check("page_load", started, sequence.url)
                        started = watch.start()
                    self._inject("visit.interaction", sequence.url)
                    with tm.stage("interaction"):
                        self._interact(slot, result)
                    if watch:
                        watch.check("interaction", started, sequence.url)
                        started = watch.start()
                    self._inject("visit.callbacks", sequence.url)
                    with tm.stage("callbacks"):
                        for callback in sequence.callbacks:
                            callback(slot.browser, result)
                    if watch:
                        watch.check("callbacks", started, sequence.url)
                        started = watch.start()
                    self._inject("visit.storage_commit", sequence.url)
                    if watch:
                        # Checked before the commit: a visit that hung
                        # here must be aborted, not persisted.
                        watch.check("storage_commit", started,
                                    sequence.url)
                    with tm.stage("storage_commit"):
                        store.end_visit(slot.browser_id)
                    self._bundle_commit(slot, sequence.url, attempts)
                    journal.emit("visit_complete", url=sequence.url,
                                 attempts=attempts,
                                 visit_id=context.visit_id)
                    tm.metrics.counter("visits_completed").inc()
                    visit_span.set_attribute("outcome", "completed")
                    visit_span.set_attribute("attempts", attempts)
                    return result
                except BrowserCrashed:
                    self._bundle_abandon(slot)
                    journal.emit("visit_crash", url=sequence.url,
                                 attempt=attempts)
                    tm.metrics.counter("visits_crashed").inc()
                    store.record_crash(slot.browser_id, sequence.url,
                                       "crash")
                    store.end_visit(slot.browser_id)
                    with tm.stage("browser_restart"):
                        self._restart_browser(slot, sequence.url)
                    give_up_reason = "failure_limit"
                    if self._trip_breaker(slot, sequence.url,
                                          visit_span, "crash"):
                        return None
                except VisitDeadlineExceeded:
                    # The watchdog's remedy for a hung visit: discard
                    # its partial rows, restart the slot, retry (or let
                    # the queue re-run it when the caller propagates).
                    # (The watchdog's own on_abort hook already wrote
                    # the ``watchdog_abort`` event with stage detail.)
                    self._bundle_abandon(slot)
                    journal.emit("visit_hung", url=sequence.url,
                                 attempt=attempts)
                    tm.metrics.counter("visits_hung").inc()
                    if slot.browser_id in store.active_visits():
                        tm.metrics.counter("visits_aborted").inc()
                        self._count_discarded(
                            store.abort_visit(slot.browser_id))
                    store.record_crash(slot.browser_id, sequence.url,
                                       "watchdog_abort")
                    with tm.stage("browser_restart"):
                        self._restart_browser(slot, sequence.url)
                    give_up_reason = "deadline"
                    if self._trip_breaker(slot, sequence.url,
                                          visit_span, "hang"):
                        return None
                    if propagate_hangs:
                        journal.emit("visit_abandoned",
                                     url=sequence.url, attempt=attempts)
                        tm.metrics.counter("visits_abandoned").inc()
                        visit_span.set_attribute("outcome", "abandoned")
                        visit_span.set_status("error:deadline")
                        raise
                except NetworkFault:
                    # The fetch died but the browser is fine: close the
                    # attempt and retry without a restart.
                    self._bundle_abandon(slot)
                    journal.emit("visit_network_fault",
                                 url=sequence.url, attempt=attempts)
                    tm.metrics.counter("visits_network_faults").inc()
                    if slot.browser_id in store.active_visits():
                        store.end_visit(slot.browser_id)
                    give_up_reason = "network_fault"
                except Exception as exc:
                    # Unexpected fault: close the visit so the browser
                    # slot stays usable, then let queue-level retry
                    # (or the caller) deal with the site.
                    self._bundle_abandon(slot)
                    journal.emit("visit_error", url=sequence.url,
                                 attempt=attempts, error=repr(exc))
                    tm.metrics.counter("visits_errored").inc()
                    if slot.browser_id in store.active_visits():
                        store.end_visit(slot.browser_id)
                    raise
            tm.metrics.counter("visits_failed_exhausted").inc()
            visit_span.set_attribute("outcome", "failed_exhausted")
            visit_span.set_attribute("attempts", attempts)
            visit_span.set_status(f"error:{give_up_reason}")
            self._record_given_up(slot, sequence.url, attempts,
                                  give_up_reason)
            return None

    # ------------------------------------------------------------------
    # Execution-bundle hooks (record and replay share the protocol;
    # each crawl site is its own bundle site keyed by URL)
    # ------------------------------------------------------------------
    def _bundle_begin(self, slot: ManagedBrowser, url: str) -> None:
        begin = getattr(self.network, "begin_visit", None)
        if begin is not None:
            begin(url, url)
        if self.recorder is not None:
            self.recorder.begin_visit(url, url)
            instrument = slot.extension.js_instrument
            slot.bundle_trace_mark = len(instrument.records) \
                if instrument is not None else 0

    def _bundle_commit(self, slot: ManagedBrowser, url: str,
                       attempts: int) -> None:
        end = getattr(self.network, "end_visit", None)
        if end is not None:
            end()
        if self.recorder is not None:
            instrument = slot.extension.js_instrument
            trace = list(instrument.records[slot.bundle_trace_mark:]) \
                if instrument is not None else []
            self.recorder.end_visit(trace=trace)
            self.recorder.finish_site(
                url, verdict={"success": True, "attempts": attempts})

    def _bundle_abandon(self, slot: ManagedBrowser) -> None:
        abandon = getattr(self.network, "abandon_visit", None)
        if abandon is not None:
            abandon()
        if self.recorder is not None:
            self.recorder.abandon_visit()

    def _interact(self, slot: ManagedBrowser, result) -> None:
        """Run the configured interaction driver on the loaded page.

        'selenium' mirrors the framework's default event synthesis;
        'human' is the HLISA-style driver (Sec. 7 / Goßen et al.).
        """
        style = slot.params.interaction
        if style is None or result is None or result.top_window is None:
            return
        from repro.browser.interaction import (
            HumanLikeInteraction,
            SeleniumInteraction,
        )

        driver_cls = HumanLikeInteraction if style == "human" \
            else SeleniumInteraction
        driver = driver_cls(self._rng)
        window = result.top_window
        driver.scroll(window, 600.0)
        driver.click(window, "a")

    def crawl(self, urls: List[str],
              callbacks: Optional[List[Callable]] = None
              ) -> List[Optional[VisitResult]]:
        """Visit every URL, distributing across browser slots.

        A site whose visit raises an unexpected exception (a broken
        callback, an abandoned hang) no longer aborts the whole crawl:
        the loss lands in ``failed_visits`` and the crawl moves on —
        the same graceful degradation the scheduled path has.
        """
        results: List[Optional[VisitResult]] = []
        for url in urls:
            slot = self._take_slot()
            kind, error, result = COMPLETE, "", None
            try:
                result = self.execute_command_sequence(
                    CommandSequence(url=url,
                                    callbacks=list(callbacks or [])),
                    slot=slot)
                if result is None:
                    kind = TERMINAL
            except Exception as exc:
                kind, error = TERMINAL, repr(exc)
            resolution = self._resolution(slot, url, kind, error)
            resolution["attempts"] = 1
            self.settle_visit(resolution,
                              COMPLETED if kind == COMPLETE else FAILED)
            results.append(result)
        return results

    def crawl_scheduled(self, urls: List[str],
                        workers: Optional[int] = None,
                        queue_path: str = ":memory:",
                        resume: bool = False,
                        callbacks: Optional[List[Callable]] = None,
                        stop_after_jobs: Optional[int] = None,
                        max_attempts: int = 2,
                        lease_seconds: float = 300.0) -> "CrawlReport":
        """Drain *urls* through the crawl scheduler.

        Each worker owns one browser slot (``workers`` therefore cannot
        exceed the number of browsers; it defaults to all of them). The
        task manager's own ``failure_limit`` retry loop stays
        authoritative for in-visit crashes; a site that exhausts it is
        reported to the queue as terminally failed and never re-queued.
        Queue-level backoff handles worker-level faults (unexpected
        exceptions, watchdog-aborted hangs, expired leases): ``claim``
        consumes one attempt, so ``max_attempts=2`` gives such sites
        exactly one backed-off re-run. Sites that still fail terminally
        at the queue level get a ``failed_visits`` row — and sites the
        circuit breaker quarantined a ``quarantined_sites`` row — so
        the crawl-loss ledger stays complete.

        With ``resume=True`` (requires a file-backed ``queue_path``)
        completed sites are skipped and only the remainder is visited.
        """
        from repro.sched import CrawlBroker, CrawlScheduler

        if workers is None:
            workers = len(self.browsers)
        if workers > len(self.browsers):
            raise ValueError(
                f"{workers} workers need {workers} browser slots, "
                f"only {len(self.browsers)} configured")

        scheduler = CrawlScheduler(
            queue_path, resume=resume, seed=self.manager_params.seed,
            max_attempts=max_attempts, lease_seconds=lease_seconds,
            telemetry=self.telemetry)
        scheduler.enqueue(urls)
        try:
            return scheduler.run(
                lambda job, index: self.run_job(
                    job.site_url, self.browsers[index], callbacks),
                workers=workers, stop_after_jobs=stop_after_jobs,
                broker=CrawlBroker(self, scheduler.queue, self.telemetry),
                fault_plan=self.fault_plan)
        finally:
            scheduler.close()

    def close(self) -> None:
        """Persist the telemetry snapshot alongside the crawl, then close."""
        if self.telemetry.enabled:
            self.storage.persist_telemetry(self.telemetry.snapshot())
        self.telemetry.journal.flush()
        self.storage.close()
