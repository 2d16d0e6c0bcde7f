"""The browser: page loads, resource fetching, event loop, extension hooks."""

from __future__ import annotations

import heapq
import itertools
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.browser.cookies import Cookie, CookieJar
from repro.browser.extension import ExtensionHost
from repro.browser.profiles import BrowserProfile
from repro.browser.window import BrowserWindow, ScriptExecutionError
from repro.dom.csp import CSPViolation
from repro.dom.node import IFrameElement
from repro.net.http import HttpRequest, HttpResponse, ResourceType
from repro.net.network import ClientIdentity, ExchangeRecord, Network
from repro.net.page import IFrameItem, LinkItem, PageSpec, ResourceItem, \
    ScriptItem
from repro.net.url import URL


@dataclass
class ExecutedScript:
    """Host-side record of one script execution in some frame."""

    frame_url: str
    script_url: str
    source: str
    via_eval: bool = False


@dataclass
class VisitResult:
    """Everything one page visit produced."""

    requested_url: str
    final_url: str
    success: bool
    top_window: Optional[BrowserWindow] = None
    exchanges: List[ExchangeRecord] = field(default_factory=list)
    csp_violations: List[CSPViolation] = field(default_factory=list)
    script_errors: List[ScriptExecutionError] = field(default_factory=list)
    executed_scripts: List[ExecutedScript] = field(default_factory=list)
    popups: List[BrowserWindow] = field(default_factory=list)

    @property
    def links(self) -> List[str]:
        if self.top_window is None or self.top_window.page is None:
            return []
        return self.top_window.page.links()


class Browser:
    """A simulated automated browser bound to one network client identity.

    The event loop uses *virtual time*: ``schedule`` queues callbacks and
    ``visit`` drains the queue up to the configured dwell time, so a
    "60 second" page idle costs no wall-clock time.
    """

    def __init__(self, profile: BrowserProfile, network: Network,
                 client_id: str = "client-0",
                 extension: Optional[ExtensionHost] = None,
                 seed: int = 0) -> None:
        self.profile = profile
        self.network = network
        self.client = ClientIdentity(
            client_id=client_id,
            user_agent=str(profile.navigator.get("userAgent", "")))
        self.extension = extension
        self.rng = random.Random(seed)
        self.cookie_jar = CookieJar()
        self.current_time = 0.0
        self._timer_queue: List[Tuple[float, int, int]] = []
        self._timer_callbacks: Dict[int, Callable[[], None]] = {}
        self._timer_ids = itertools.count(1)
        self._window_count = 0
        self._local_storage: Dict[str, Dict[str, str]] = {}
        #: Optional :class:`repro.bundles.BundleCapture`: when set,
        #: every fetch's hop chain is captured for an execution bundle;
        #: when unset the cost is this one attribute check per fetch.
        self.capture: Optional[Any] = None

        # Per-visit state
        self.exchanges: List[ExchangeRecord] = []
        self.csp_violations: List[CSPViolation] = []
        self.script_errors: List[ScriptExecutionError] = []
        self.executed_scripts: List[ExecutedScript] = []
        self.popups: List[BrowserWindow] = []
        self._top_window: Optional[BrowserWindow] = None

    def begin_site(self, site: str, seed: int, client_prefix: str) -> None:
        """Start *site* with a clean, per-site identity.

        The paper's Tranco scan runs OpenWPM stateless: every site gets
        a clean profile. The site's RNG seed and network client id are
        derived from ``(seed, site)``; the clock, cookie jar, local
        storage, window and timer counters and the extension's
        in-memory instrument records start over, and a replay
        transport starts the site's archived visits over. What a site
        serves and records is then the same whichever sites this
        browser visited before, so a crawl's tables do not depend on
        the worker count or on which worker visited which site.
        """
        self.rng.seed((seed * 1_000_003 + zlib.crc32(site.encode()))
                      & 0x7FFFFFFF)
        self.client = ClientIdentity(client_id=f"{client_prefix}:{site}",
                                     user_agent=self.client.user_agent)
        self.cookie_jar = CookieJar()
        self.current_time = 0.0
        self._local_storage = {}
        self._timer_ids = itertools.count(1)
        self._window_count = 0
        if self.extension is not None:
            self.extension.clear_records()
        self.network.begin_site(site)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def schedule(self, fn: Callable[[], None], delay: float = 0.0) -> int:
        timer_id = next(self._timer_ids)
        heapq.heappush(self._timer_queue,
                       (self.current_time + delay, timer_id, timer_id))
        self._timer_callbacks[timer_id] = fn
        return timer_id

    def cancel_scheduled(self, timer_id: int) -> None:
        self._timer_callbacks.pop(timer_id, None)

    def run_event_loop(self, until: float) -> None:
        """Run queued tasks with fire time <= *until* (virtual seconds)."""
        while self._timer_queue and self._timer_queue[0][0] <= until:
            fire_time, _, timer_id = heapq.heappop(self._timer_queue)
            callback = self._timer_callbacks.pop(timer_id, None)
            self.current_time = max(self.current_time, fire_time)
            if callback is not None:
                callback()
        self.current_time = max(self.current_time, until)

    def drain_microtasks(self) -> None:
        """Run all tasks scheduled for 'now' (delay 0)."""
        self.run_event_loop(self.current_time)

    def next_window_index(self) -> int:
        index = self._window_count
        self._window_count += 1
        return index

    def local_storage_for(self, origin: str) -> Dict[str, str]:
        return self._local_storage.setdefault(origin, {})

    # ------------------------------------------------------------------
    # Visiting pages
    # ------------------------------------------------------------------
    def visit(self, url: str, wait: float = 60.0) -> VisitResult:
        """Load *url*, execute its content, idle for *wait* seconds."""
        requested = URL.parse(url)
        self._reset_visit_state()
        if self.extension is not None:
            self.extension.on_visit_start(self, requested)

        response, hops = self._fetch_with_cookies(
            requested, ResourceType.MAIN_FRAME, top_frame_url=requested,
            frame_url=requested)
        final_url = hops[-1].request.url if hops else requested
        if response.status != 200 or not isinstance(response.page, PageSpec):
            return self._finish_visit(VisitResult(
                requested_url=url, final_url=str(final_url), success=False,
                exchanges=list(self.exchanges)))

        top = BrowserWindow(self, final_url, response.page)
        self._top_window = top
        if self.extension is not None:
            self.extension.on_window_created(top)
        self._process_page_items(top)
        top.document.ready_state = "complete"
        self._fire_load_event(top)
        self.drain_microtasks()
        self.run_event_loop(self.current_time + wait)

        result = VisitResult(
            requested_url=url, final_url=str(final_url), success=True,
            top_window=top, exchanges=list(self.exchanges),
            csp_violations=list(self.csp_violations),
            script_errors=list(self.script_errors),
            executed_scripts=list(self.executed_scripts),
            popups=list(self.popups))
        return self._finish_visit(result)

    def _finish_visit(self, result: VisitResult) -> VisitResult:
        if self.extension is not None:
            self.extension.on_visit_end(self)
        return result

    def _reset_visit_state(self) -> None:
        self.exchanges = []
        self.csp_violations = []
        self.script_errors = []
        self.executed_scripts = []
        self.popups = []
        self._top_window = None
        self._timer_queue.clear()
        self._timer_callbacks.clear()

    def _process_page_items(self, window: BrowserWindow) -> None:
        """Walk the page top-to-bottom like an HTML parser."""
        page = window.page
        if page is None:
            return
        for item in page.items:
            if isinstance(item, ScriptItem):
                element = window.document.create_element("script")
                if item.src:
                    element.attributes["src"] = item.src
                else:
                    element.text_content = item.source
                element.attributes.update(item.attributes)
                window.document.head.append_child(element)
            elif isinstance(item, IFrameItem):
                element = window.document.create_element("iframe")
                element.attributes["src"] = item.src
                element.attributes.update(item.attributes)
                window.document.body.append_child(element)
            elif isinstance(item, ResourceItem):
                window.issue_request(item.url, item.resource_type)
            elif isinstance(item, LinkItem):
                element = window.document.create_element("a")
                element.attributes["href"] = item.href
                element.text_content = item.text
                window.document.body.append_child(element)

    def _fire_load_event(self, window: BrowserWindow) -> None:
        from repro.dom.events import DOMEvent

        event = DOMEvent("load", proto=window.dom.event)
        window.document.host_dispatch(event, window.interp)

    # ------------------------------------------------------------------
    # Frames & popups
    # ------------------------------------------------------------------
    def load_iframe(self, parent: BrowserWindow,
                    iframe: IFrameElement) -> None:
        """Create the iframe's content window.

        The window exists (and is JS-reachable through ``contentWindow``)
        immediately; extension instrumentation attaches per the
        extension's frame policy — deferred instrumentation leaves the
        same-tick gap that the Listing-3 bypass exploits.
        """
        src = iframe.attributes.get("src", "")
        page: Optional[PageSpec] = None
        frame_url = parent.url
        if src and src != "about:blank":
            try:
                frame_url = URL.parse(src, base=parent.url)
            except ValueError:
                frame_url = parent.url
            response, _ = self._fetch_with_cookies(
                frame_url, ResourceType.SUB_FRAME,
                top_frame_url=self._top_frame_url(parent),
                frame_url=frame_url)
            if isinstance(response.page, PageSpec):
                page = response.page
        child = BrowserWindow(self, frame_url, page, parent=parent)
        parent.child_frames.append(child)
        iframe.content_window = child

        if self.extension is not None:
            if self.extension.frame_policy == "immediate":
                self.extension.on_frame_created(child, parent)
            else:
                self.schedule(
                    lambda: self.extension.on_frame_created(child, parent),
                    delay=0.0)
        # Frame content executes asynchronously, after instrumentation
        # tasks queued at creation time.
        self.schedule(lambda: self._run_frame_content(child, iframe),
                      delay=0.0)

    def _run_frame_content(self, child: BrowserWindow,
                           iframe: IFrameElement) -> None:
        self._process_page_items(child)
        child.document.ready_state = "complete"
        from repro.dom.events import DOMEvent

        event = DOMEvent("load", proto=child.dom.event)
        iframe.host_dispatch(event, child.interp)

    def open_popup(self, target: str,
                   opener: BrowserWindow) -> Optional[BrowserWindow]:
        try:
            url = URL.parse(target, base=opener.url)
        except ValueError:
            return None
        response, _ = self._fetch_with_cookies(
            url, ResourceType.MAIN_FRAME, top_frame_url=url, frame_url=url)
        page = response.page if isinstance(response.page, PageSpec) else None
        popup = BrowserWindow(self, url, page, is_popup=True)
        self.popups.append(popup)
        if self.extension is not None:
            if self.extension.frame_policy == "immediate":
                self.extension.on_frame_created(popup, opener)
            else:
                self.schedule(
                    lambda: self.extension.on_frame_created(popup, opener),
                    delay=0.0)
        self.schedule(lambda: self._process_page_items(popup), delay=0.0)
        return popup

    def _top_frame_url(self, window: BrowserWindow) -> URL:
        return window.top_window().url

    # ------------------------------------------------------------------
    # Networking
    # ------------------------------------------------------------------
    def fetch_resource(self, url: URL, resource_type: str,
                       frame: BrowserWindow,
                       initiator_script: Optional[str] = None
                       ) -> HttpResponse:
        response, _ = self._fetch_with_cookies(
            url, resource_type,
            top_frame_url=self._top_frame_url(frame),
            frame_url=frame.url,
            initiator_script=initiator_script)
        return response

    def _fetch_with_cookies(self, url: URL, resource_type: str,
                            top_frame_url: URL, frame_url: URL,
                            initiator_script: Optional[str] = None
                            ) -> Tuple[HttpResponse, List[ExchangeRecord]]:
        request = HttpRequest(
            url=url,
            resource_type=resource_type,
            top_frame_url=top_frame_url,
            frame_url=frame_url,
            initiator_script=initiator_script,
            cookie_header=self.cookie_jar.header_for(url, self.current_time),
            headers={"User-Agent": self.client.user_agent},
        )
        response, hops = self.network.fetch(request, self.client)
        if self.capture is not None:
            self.capture.on_fetch(hops)
        for hop in hops:
            self.exchanges.append(hop)
            for set_cookie in hop.response.set_cookies:
                cookie = self.cookie_jar.set_from_response(
                    set_cookie, hop.request.url, top_frame_url.host,
                    self.current_time)
                self.notify_cookie(cookie, "added-http")
            if self.extension is not None:
                self.extension.on_request(hop.request, hop.response)
        return response, hops

    def notify_cookie(self, cookie: Cookie, change: str) -> None:
        if self.extension is not None:
            self.extension.on_cookie_change(cookie, change)

    # ------------------------------------------------------------------
    # Reporting hooks
    # ------------------------------------------------------------------
    def report_csp_violation(self, window: BrowserWindow,
                             violation: CSPViolation) -> None:
        self.csp_violations.append(violation)
        if violation.report_uri:
            try:
                report_url = URL.parse(violation.report_uri,
                                       base=window.url)
            except ValueError:
                return
            request = HttpRequest(
                url=report_url,
                resource_type=ResourceType.CSP_REPORT,
                method="POST",
                body=f'{{"csp-report":{{"violated-directive":'
                     f'"{violation.directive}","blocked-uri":'
                     f'"{violation.blocked}"}}}}',
                top_frame_url=self._top_frame_url(window),
                frame_url=window.url,
            )
            response, hops = self.network.fetch(request, self.client)
            if self.capture is not None:
                self.capture.on_fetch(hops)
            for hop in hops:
                self.exchanges.append(hop)
                if self.extension is not None:
                    self.extension.on_request(hop.request, hop.response)

    def note_script_execution(self, window: BrowserWindow, script_url: str,
                              source: str, via_eval: bool = False) -> None:
        self.executed_scripts.append(ExecutedScript(
            frame_url=str(window.url), script_url=script_url,
            source=source, via_eval=via_eval))
