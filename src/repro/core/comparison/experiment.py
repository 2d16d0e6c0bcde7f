"""The paired WPM vs WPM_hide crawl (paper Sec. 6.3).

Two browsers — vanilla OpenWPM (*WPM*) and the hardened variant
(*WPM_hide*) — with separate network identities (the paper's two
residential IPs) visit the same detector-bearing sites in lockstep, for
three repetitions r1..r3. Server-side re-identification state persists
across repetitions (the paper's amplification effect); each repetition
starts from a fresh browser profile.

Outputs map onto the paper's evaluation:

* :meth:`PairedCrawlResult.table8`  — requests by resource type;
* :meth:`PairedCrawlResult.table9`  — EasyList/EasyPrivacy traffic;
* :meth:`PairedCrawlResult.table10` — first/third-party/tracking cookies;
* :meth:`PairedCrawlResult.fig6`    — per-API JS-call coverage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.browser.browser import Browser
from repro.browser.profiles import openwpm_profile
from repro.core.comparison.blocklists import BlocklistMatcher
from repro.core.comparison.cookies import (
    classify_tracking_cookies,
    count_tracking_per_run,
)
from repro.core.comparison.stats import WilcoxonResult, paired_wilcoxon
from repro.core.hardening.settings import StealthSettings
from repro.core.hardening.stealth import StealthJSInstrument
from repro.net.http import ResourceType
from repro.obs.telemetry import Telemetry, coalesce
from repro.openwpm.config import BrowserParams
from repro.openwpm.extension import OpenWPMExtension
from repro.openwpm.instruments.cookie_instrument import CookieRecord
from repro.openwpm.instruments.http_instrument import HttpExchangeRecord
from repro.sched import CrawlScheduler
from repro.web.world import SyntheticWeb


@dataclass
class ClientRunData:
    """Everything one client collected in one repetition."""

    client: str
    run: int
    requests: List[HttpExchangeRecord] = field(default_factory=list)
    cookies: List[CookieRecord] = field(default_factory=list)
    js_symbols: Counter = field(default_factory=Counter)
    #: per-site request counts (for significance testing)
    per_site_requests: Dict[str, int] = field(default_factory=dict)
    per_site_cookies: Dict[str, int] = field(default_factory=dict)
    per_site_tracker_requests: Dict[str, int] = field(default_factory=dict)
    failed_hook_sites: int = 0

    def requests_by_type(self) -> Counter:
        counter: Counter = Counter()
        for record in self.requests:
            counter[record.resource_type] += 1
        return counter


@dataclass
class PairedCrawlResult:
    """The three repetitions for both clients, plus derived tables."""

    wpm_runs: List[ClientRunData] = field(default_factory=list)
    hide_runs: List[ClientRunData] = field(default_factory=list)
    site_count: int = 0

    # ------------------------------------------------------------------
    # Table 8
    # ------------------------------------------------------------------
    def table8(self, run: int = 0) -> List[Dict[str, object]]:
        """Rows: resource type, WPM count, WPM_hide count, diff %."""
        wpm = self.wpm_runs[run].requests_by_type()
        hide = self.hide_runs[run].requests_by_type()
        rows = []
        for resource_type in ResourceType.ALL:
            base = wpm.get(resource_type, 0)
            other = hide.get(resource_type, 0)
            diff = ((other - base) / base * 100.0) if base else (
                100.0 if other else 0.0)
            rows.append({"resource_type": resource_type, "wpm": base,
                         "wpm_hide": other, "diff_pct": diff})
        total_wpm = sum(wpm.values())
        total_hide = sum(hide.values())
        rows.append({
            "resource_type": "total", "wpm": total_wpm,
            "wpm_hide": total_hide,
            "diff_pct": ((total_hide - total_wpm) / total_wpm * 100.0)
            if total_wpm else 0.0})
        return rows

    def csp_report_reduction(self, run: int = 0) -> float:
        wpm = self.wpm_runs[run].requests_by_type().get(
            ResourceType.CSP_REPORT, 0)
        hide = self.hide_runs[run].requests_by_type().get(
            ResourceType.CSP_REPORT, 0)
        if wpm == 0:
            return 0.0
        return (hide - wpm) / wpm * 100.0

    # ------------------------------------------------------------------
    # Table 9
    # ------------------------------------------------------------------
    def table9(self, matcher: Optional[BlocklistMatcher] = None
               ) -> List[Dict[str, object]]:
        matcher = matcher or BlocklistMatcher()
        rows = []
        for run_index, (wpm, hide) in enumerate(
                zip(self.wpm_runs, self.hide_runs)):
            wpm_counts = matcher.count(r.url for r in wpm.requests)
            hide_counts = matcher.count(r.url for r in hide.requests)
            rows.append({
                "run": run_index + 1,
                "wpm_easylist": wpm_counts["easylist"],
                "hide_easylist": hide_counts["easylist"],
                "easylist_diff_pct": _pct(wpm_counts["easylist"],
                                          hide_counts["easylist"]),
                "wpm_easyprivacy": wpm_counts["easyprivacy"],
                "hide_easyprivacy": hide_counts["easyprivacy"],
                "easyprivacy_diff_pct": _pct(wpm_counts["easyprivacy"],
                                             hide_counts["easyprivacy"]),
            })
        return rows

    def tracker_significance(self, run: int = 0) -> WilcoxonResult:
        wpm = self.wpm_runs[run].per_site_tracker_requests
        hide = self.hide_runs[run].per_site_tracker_requests
        sites = sorted(set(wpm) | set(hide))
        return paired_wilcoxon([wpm.get(s, 0) for s in sites],
                               [hide.get(s, 0) for s in sites])

    # ------------------------------------------------------------------
    # Table 10
    # ------------------------------------------------------------------
    def table10(self) -> List[Dict[str, object]]:
        wpm_tracking = classify_tracking_cookies(
            [run.cookies for run in self.wpm_runs])
        hide_tracking = classify_tracking_cookies(
            [run.cookies for run in self.hide_runs])
        wpm_track_counts = count_tracking_per_run(
            [run.cookies for run in self.wpm_runs], wpm_tracking)
        hide_track_counts = count_tracking_per_run(
            [run.cookies for run in self.hide_runs], hide_tracking)
        rows = []
        for run_index, (wpm, hide) in enumerate(
                zip(self.wpm_runs, self.hide_runs)):
            wpm_first = sum(1 for c in wpm.cookies if not c.is_third_party)
            wpm_third = sum(1 for c in wpm.cookies if c.is_third_party)
            hide_first = sum(1 for c in hide.cookies
                             if not c.is_third_party)
            hide_third = sum(1 for c in hide.cookies if c.is_third_party)
            rows.append({
                "run": run_index + 1,
                "wpm_first_party": wpm_first,
                "hide_first_party": hide_first,
                "first_party_diff_pct": _pct(wpm_first, hide_first),
                "wpm_third_party": wpm_third,
                "hide_third_party": hide_third,
                "third_party_diff_pct": _pct(wpm_third, hide_third),
                "wpm_tracking": wpm_track_counts[run_index],
                "hide_tracking": hide_track_counts[run_index],
                "tracking_diff_pct": _pct(wpm_track_counts[run_index],
                                          hide_track_counts[run_index]),
            })
        return rows

    def cookie_significance(self, run: int = 0) -> WilcoxonResult:
        wpm = self.wpm_runs[run].per_site_cookies
        hide = self.hide_runs[run].per_site_cookies
        sites = sorted(set(wpm) | set(hide))
        return paired_wilcoxon([wpm.get(s, 0) for s in sites],
                               [hide.get(s, 0) for s in sites])

    # ------------------------------------------------------------------
    # Fig. 6
    # ------------------------------------------------------------------
    def fig6(self, run: int = 0) -> List[Dict[str, object]]:
        """Per-API coverage: WPM records as a share of WPM_hide's."""
        wpm = _normalise_symbols(self.wpm_runs[run].js_symbols)
        hide = _normalise_symbols(self.hide_runs[run].js_symbols)
        rows = []
        for symbol, hide_count in hide.most_common():
            wpm_count = wpm.get(symbol, 0)
            rows.append({
                "symbol": symbol,
                "wpm": wpm_count,
                "wpm_hide": hide_count,
                "coverage": min(1.0, wpm_count / hide_count)
                if hide_count else 1.0,
            })
        return rows


def _pct(base: int, other: int) -> float:
    if base == 0:
        return 100.0 if other else 0.0
    return (other - base) / base * 100.0


def _normalise_symbols(symbols: Counter) -> Counter:
    """Case-fold and map instance-style names to interface-style."""
    out: Counter = Counter()
    for symbol, count in symbols.items():
        head, _, tail = symbol.partition(".")
        head = head[:1].upper() + head[1:]
        out[f"{head}.{tail}"] += count
    return out


class PairedCrawl:
    """Runs the synchronised two-client experiment."""

    def __init__(self, web: SyntheticWeb,
                 sites: Optional[List[str]] = None,
                 repetitions: int = 3, dwell: float = 60.0,
                 seed: int = 17,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.web = web
        self.repetitions = repetitions
        self.dwell = dwell
        self.seed = seed
        self.telemetry = coalesce(telemetry)
        if sites is None:
            sites = sorted(web.ground_truth.detector_sites())
        self.sites = sites

    # ------------------------------------------------------------------
    def run(self) -> PairedCrawlResult:
        result = PairedCrawlResult(site_count=len(self.sites))
        for run_index in range(self.repetitions):
            with self.telemetry.tracer.span("paired_repetition",
                                            run=run_index + 1):
                wpm_data = self._run_client(run_index, stealth=False)
                hide_data = self._run_client(run_index, stealth=True)
            result.wpm_runs.append(wpm_data)
            result.hide_runs.append(hide_data)
            # Bot intel is published in batches between repetitions —
            # networks act on a reported client from the next run on.
            self.web.sync_intel()
        return result

    def _run_client(self, run_index: int, stealth: bool) -> ClientRunData:
        label = "wpm_hide" if stealth else "wpm"
        if stealth:
            settings = StealthSettings.plausible()
            profile = openwpm_profile(
                "ubuntu", "regular",
                window_size=settings.window_size,
                window_position=settings.window_position)
            extension = OpenWPMExtension(
                BrowserParams(stealth=True, save_content="all"),
                js_instrument=StealthJSInstrument())
        else:
            profile = openwpm_profile("ubuntu", "regular")
            extension = OpenWPMExtension(BrowserParams(save_content="all"))
        browser = Browser(
            profile, self.web.network,
            client_id=f"{label}-machine",  # one IP per client, all runs
            extension=extension,
            seed=self.seed + run_index * 101 + (5000 if stealth else 0))

        tm = self.telemetry
        data = ClientRunData(client=label, run=run_index + 1)

        def visit_site(job, worker_index):
            domain = job.site_url
            extension.clear_records()
            with tm.stage("paired_visit", client=label):
                browser.visit(f"https://www.{domain}/", wait=self.dwell)
            tm.metrics.counter("paired_visits", client=label).inc()
            data.requests.extend(extension.http_instrument.records)
            data.cookies.extend(extension.cookie_instrument.records)
            for record in extension.js_instrument.records:
                data.js_symbols[record.symbol] += 1
            data.per_site_requests[domain] = len(
                extension.http_instrument.records)
            data.per_site_cookies[domain] = len(
                extension.cookie_instrument.records)
            matcher = _MATCHER
            data.per_site_tracker_requests[domain] = sum(
                1 for r in extension.http_instrument.records
                if matcher.matches_any(r.url))
            if extension.js_instrument.failed_windows:
                data.failed_hook_sites += 1
                tm.metrics.counter("paired_hook_failures",
                                   client=label).inc()

        # Both clients must see the sites in the same order (lockstep),
        # so the run drains an in-memory scheduler with one worker —
        # inline, order-preserving, and identical to the plain loop.
        scheduler = CrawlScheduler(seed=self.seed, max_attempts=1,
                                   telemetry=tm)
        scheduler.enqueue(self.sites)
        try:
            scheduler.run(visit_site, workers=1)
        finally:
            scheduler.close()
        return data


_MATCHER = BlocklistMatcher()
