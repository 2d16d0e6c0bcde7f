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
from repro.openwpm.storage import StorageController
from repro.sched.jobs import COMPLETED, FAILED
from repro.sched.settle import LOST

#: abort_visit table name -> records_written instrument label.
_DISCARD_INSTRUMENTS = {
    "javascript": "js",
    "http_requests": "http",
    "javascript_cookies": "cookie",
}


#: Ledger operations :func:`visit_ledger_ops` returns, with their
#: argument: a committed visit id to delete, a give-up reason, or None.
DISCARD_VISIT = "discard_visit"
GIVE_UP = "give_up"
RETRACT_GIVEN_UP = "retract_given_up"
RETRACT_QUARANTINE = "retract_quarantine"


def visit_ledger_ops(state: str, error: str, visit_ids: List[int],
                     gave_up: bool, quarantined: bool,
                     completed_elsewhere: bool) -> List[Tuple[str, Any]]:
    """The crawl ledgers' answer to one settled job attempt.

    Inputs: the settled *state* (``completed``, ``failed``, ``pending``
    or ``lost``) and *error*; the visits this attempt committed; whether
    it gave the site up (wrote a ``failed_visits`` row); whether the
    site is quarantined; and — for a lost attempt — whether another
    worker completed the job. Every settled site must end in exactly
    one of ``site_visits``, ``failed_visits`` or ``quarantined_sites``:

    * completed — a quarantine a hung sibling attempt tripped while
      this visit was in flight is stale;
    * failed — a row the attempt already wrote (give-up or
      quarantine) is the entry, otherwise the site is given up;
    * lost — the verdict is void: this attempt's visits and give-up
      row go, and if the job was completed elsewhere a quarantine this
      attempt tripped is stale too;
    * pending — nothing yet: the re-run settles the site.
    """
    if state == COMPLETED:
        return [(RETRACT_QUARANTINE, None)] if quarantined else []
    if state == FAILED:
        return [] if gave_up or quarantined else [(GIVE_UP, error)]
    if state != LOST:
        return []
    ops: List[Tuple[str, Any]] = [(DISCARD_VISIT, visit_id)
                                  for visit_id in visit_ids]
    if gave_up:
        ops.append((RETRACT_GIVEN_UP, None))
    if quarantined and completed_elsewhere:
        ops.append((RETRACT_QUARANTINE, None))
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
    crash_count: int = 0
    #: visit_id of this slot's most recently *committed* visit, None
    #: until one completes. Settling a lost lease deletes that copy.
    last_visit_id: Optional[int] = None
    #: site whose ``failed_visits`` row this slot's latest
    #: execute_command_sequence call wrote (retry exhaustion), None
    #: otherwise. Settling a lost lease retracts that row.
    last_given_up_site: Optional[str] = None
    #: Index into the slot's JS-instrument record stream at visit
    #: start; the slice from here is the visit's bundle trace.
    bundle_trace_mark: int = 0


class TaskManager:
    """Drives browsers over a list of sites with crash recovery.

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
            self._launch_browser(params) for params in browser_params]
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
            self.storage.fault_plan = self.fault_plan
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
    def _launch_browser(self, params: BrowserParams) -> ManagedBrowser:
        profile = openwpm_profile(
            params.os_name,
            "regular" if params.display_mode == "native"
            else params.display_mode,
            window_size=params.window_size,
            window_position=params.window_position)
        # Each browser writes through a handle pinning its browser_id,
        # so concurrent visits cannot cross-attribute records.
        storage_handle = self.storage.handle(params.browser_id)
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
                              browser=browser, extension=extension)

    def _restart_browser(self, slot: ManagedBrowser,
                         site_url: str = "") -> None:
        """Replace a crashed browser, preserving its identity and params.

        ``site_url`` is the URL being visited when the browser died, so
        the restart row in ``crash_history`` names the responsible site.
        A slot caught crash-looping cools down (virtual time) before
        the relaunch instead of hot-looping replacements.
        """
        self.storage.record_crash(slot.browser_id, site_url, "restart")
        self.telemetry.metrics.counter("browser_restarts").inc()
        if self._crash_loop is not None:
            cooldown = self._crash_loop.on_restart(
                slot.browser_id, self.telemetry.clock.peek())
            if cooldown > 0:
                self.telemetry.metrics.counter("browser_cooldowns").inc()
                self.telemetry.clock.advance(cooldown)
        replacement = self._launch_browser(slot.params)
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
        self.storage.record_quarantine(
            url, self._breaker.failures(url), why,
            self.telemetry.clock.peek())
        tm = self.telemetry
        tm.journal.emit("site_quarantined", url=url,
                        failures=self._breaker.failures(url), why=why)
        tm.metrics.counter("sites_quarantined").inc()
        tm.metrics.counter("visits_quarantined").inc()
        # The quarantine row is now the site's single ledger entry:
        # retract any failed_visits row written earlier (e.g. a
        # lease-expiry reclaim that went terminal while this worker
        # was still hung on the site).
        self._retract_failed_rows(url)
        visit_span.set_attribute("outcome", "quarantined")
        visit_span.set_status("error:quarantined")
        return True

    def _retract_failed_rows(self, url: str) -> int:
        """Void a site's failed_visits entries (superseded verdict)."""
        retracted = self.storage.retract_failed_visits(url)
        if retracted:
            self.telemetry.journal.emit("given_up_retracted", url=url,
                                        count=retracted)
            self.telemetry.metrics.counter(
                "visits_given_up_retracted").inc(retracted)
            with self._failed_sites_lock:
                self.failed_sites = [site for site in self.failed_sites
                                     if site != url]
        return retracted

    def _retract_stale_quarantine(self, url: str) -> None:
        """Void a quarantine tripped by an already-voided attempt after
        the site was (or is being) completed by a live worker: close
        the breaker and drop the row so the ledger matches the queue's
        verdict that the site succeeded."""
        retracted = self.storage.retract_quarantine(url)
        if retracted:
            self.telemetry.journal.emit("quarantine_retracted", url=url,
                                        count=retracted)
            self.telemetry.metrics.counter(
                "sites_quarantined_retracted").inc(retracted)
        if self._breaker is not None:
            self._breaker.reset(url)

    def _record_given_up(self, browser_id: int, url: str,
                         attempts: int, reason: str) -> None:
        """The crawl-loss ledger entry for a site given up on."""
        self.storage.record_failed_visit(browser_id, url, attempts,
                                         reason)
        self.telemetry.journal.emit("visit_given_up", url=url,
                                    attempts=attempts, reason=reason)
        self.telemetry.metrics.counter("visits_given_up").inc()
        with self._failed_sites_lock:
            self.failed_sites.append(url)

    def _give_up(self, browser_id: int, url: str, attempts: int,
                 reason: str) -> bool:
        """Ledger a site given up on; False when the row was retracted
        again because a concurrent trip (scheduled path) quarantined
        the site meanwhile — that row is the ledger entry, the
        exhaustion one would double up."""
        self._record_given_up(browser_id, url, attempts, reason)
        if self.is_quarantined(url):
            self._retract_failed_rows(url)
            return False
        return True

    def settle_visit(self, queue: Any, job_id: int, url: str, state: str,
                     error: str, *, browser_id: int, attempts: int,
                     visit_ids: List[int], gave_up: bool,
                     quarantined: bool) -> None:
        """Bring the crawl ledgers in line with one settled job attempt.

        The rules are :func:`visit_ledger_ops`; this applies them. The
        thread pool's hook passes the attempt's slot state, the process
        broker the shipped envelope (the visits it imported, whether a
        ``failed_visits`` row came along, the worker's breaker state).
        """
        completed_elsewhere = state == LOST and quarantined \
            and queue.job_status(job_id) == COMPLETED
        for op, arg in visit_ledger_ops(state, error, visit_ids, gave_up,
                                        quarantined, completed_elsewhere):
            if op == DISCARD_VISIT:
                self.telemetry.journal.emit("visit_discarded", url=url,
                                            visit_id=arg)
                self._count_discarded(self.storage.delete_visit(arg))
                self.telemetry.metrics.counter("visits_discarded").inc()
            elif op == GIVE_UP:
                self._give_up(browser_id, url, attempts, arg)
            elif op == RETRACT_GIVEN_UP:
                self._retract_failed_rows(url)
            else:
                self._retract_stale_quarantine(url)

    def _count_discarded(self, discarded: Dict[str, int]) -> None:
        for table, count in discarded.items():
            instrument = _DISCARD_INSTRUMENTS.get(table)
            if instrument is not None and count > 0:
                self.telemetry.metrics.counter(
                    "records_discarded", instrument=instrument).inc(count)

    # ------------------------------------------------------------------
    def get(self, url: str,
            callbacks: Optional[List[Callable]] = None,
            dwell_time: Optional[float] = None) -> None:
        """Enqueue-and-run a GET command sequence for *url*."""
        self.execute_command_sequence(CommandSequence(
            url=url, callbacks=callbacks or [], dwell_time=dwell_time))

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
            slot = self.browsers[self._next_slot]
            self._next_slot = (self._next_slot + 1) % len(self.browsers)

        slot.last_visit_id = None
        slot.last_given_up_site = None
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
                    context = self.storage.begin_visit(slot.browser_id,
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
                        self.storage.end_visit(slot.browser_id)
                    self._bundle_commit(slot, sequence.url, attempts)
                    slot.last_visit_id = context.visit_id
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
                    self.storage.record_crash(slot.browser_id,
                                              sequence.url, "crash")
                    self.storage.end_visit(slot.browser_id)
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
                    if slot.browser_id in self.storage.active_visits():
                        tm.metrics.counter("visits_aborted").inc()
                        self._count_discarded(
                            self.storage.abort_visit(slot.browser_id))
                    self.storage.record_crash(slot.browser_id,
                                              sequence.url,
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
                    if slot.browser_id in self.storage.active_visits():
                        self.storage.end_visit(slot.browser_id)
                    give_up_reason = "network_fault"
                except Exception as exc:
                    # Unexpected fault: close the visit so the browser
                    # slot stays usable, then let queue-level retry
                    # (or the caller) deal with the site.
                    self._bundle_abandon(slot)
                    journal.emit("visit_error", url=sequence.url,
                                 attempt=attempts, error=repr(exc))
                    tm.metrics.counter("visits_errored").inc()
                    if slot.browser_id in self.storage.active_visits():
                        self.storage.end_visit(slot.browser_id)
                    raise
            tm.metrics.counter("visits_failed_exhausted").inc()
            visit_span.set_attribute("outcome", "failed_exhausted")
            visit_span.set_attribute("attempts", attempts)
            visit_span.set_status(f"error:{give_up_reason}")
            if self._give_up(slot.browser_id, sequence.url, attempts,
                             give_up_reason):
                slot.last_given_up_site = sequence.url
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
            slot = self.browsers[self._next_slot]
            self._next_slot = (self._next_slot + 1) % len(self.browsers)
            try:
                results.append(self.execute_command_sequence(
                    CommandSequence(url=url,
                                    callbacks=list(callbacks or [])),
                    slot=slot))
            except Exception as exc:
                self._record_given_up(slot.browser_id, url, 1,
                                      repr(exc))
                results.append(None)
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
        from repro.sched import CrawlScheduler, JobFailed

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

        def handler(job: Any, worker_index: int) -> None:
            slot = self.browsers[worker_index]
            result = self.execute_command_sequence(
                CommandSequence(url=job.site_url,
                                callbacks=list(callbacks or [])),
                slot=slot, propagate_hangs=True)
            if result is None:
                if self.is_quarantined(job.site_url):
                    # The quarantined_sites row is the ledger entry.
                    raise JobFailed("quarantined", retry=False)
                # failure_limit already exhausted and the failed_visits
                # row written — do not burn queue retries on it too.
                raise JobFailed("failure_limit", retry=False)

        def on_settled(job: Any, worker_index: int, state: str,
                       error: str) -> None:
            # The slot remembers what its latest attempt recorded; the
            # record is consumed here, so a lease-expiry terminal this
            # worker's next reclaim sweep settles cannot pick it up.
            slot = self.browsers[worker_index]
            visit_ids = [slot.last_visit_id] \
                if slot.last_visit_id is not None else []
            gave_up = slot.last_given_up_site == job.site_url
            slot.last_visit_id = slot.last_given_up_site = None
            self.settle_visit(
                scheduler.queue, job.job_id, job.site_url, state, error,
                browser_id=slot.browser_id, attempts=job.attempts,
                visit_ids=visit_ids, gave_up=gave_up,
                quarantined=self.is_quarantined(job.site_url))

        try:
            return scheduler.run(
                handler, workers=workers,
                stop_after_jobs=stop_after_jobs,
                on_settled=on_settled,
                fault_plan=self.fault_plan)
        finally:
            scheduler.close()

    def close(self) -> None:
        """Persist the telemetry snapshot alongside the crawl, then close."""
        if self.telemetry.enabled:
            self.storage.persist_telemetry(self.telemetry.snapshot())
        self.telemetry.journal.flush()
        self.storage.close()
