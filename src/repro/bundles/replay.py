"""Replay transport: serve every fetch from an execution bundle.

:class:`ReplayNetwork` subclasses the live :class:`Network` but never
registers a server — ``fetch`` answers straight from the bundle's
archived hop chains, matched by ``(method, url)`` in FIFO order within
the current visit. The browser above it runs the full instrumentation
and detector pipeline unmodified; only the web underneath is swapped
for the archive. Since the synthetic web serves content as a pure
function of (world, domain, seed), an unchanged pipeline replayed over
an unchanged bundle reproduces byte-identical verdicts and tables —
at any worker count, because each site replays independently: visit
cursors are thread-local, and a worker process opens its own
``ReplayNetwork`` over the bundle directory. Replaying does not
record; a browser that re-records the replay captures what this
network serves exactly as it would a live one's
(:mod:`repro.bundles.record`).

A fetch with no archived answer is a *replay miss*: it returns 404,
counts ``bundle_replay_misses``, and journals the divergence — it
never silently falls through to a live server (there are none).
"""

from __future__ import annotations

import threading
from collections import deque
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.bundles.bundle import Bundle
from repro.bundles.codec import decode_hops
from repro.net.http import HttpRequest, HttpResponse
from repro.net.network import ClientIdentity, ExchangeRecord, Network
from repro.obs.telemetry import coalesce


class ReplayNetwork(Network):
    """A network whose only origin is an execution bundle."""

    def __init__(self, bundle: Bundle, telemetry=None) -> None:
        super().__init__()
        self.bundle = bundle
        self.telemetry = coalesce(telemetry)
        self._tl = threading.local()
        self._miss_lock = threading.Lock()
        self.replay_misses = 0
        self.replay_hits = 0

    # ------------------------------------------------------------------
    # Visit scoping: every job attempt of the crawl or scan starts its
    # site's cursor over, then each visit takes the next archived one
    # ------------------------------------------------------------------
    def begin_site(self, site: str) -> None:
        """A job attempt for *site* starts: replay its first visit next.

        Reset per attempt, not per change of site: a retried attempt
        replays the same archived visits, and so does a later job for
        the same site (a crawl listing one URL twice in a row).
        """
        tl = self._tl
        tl.site = site
        tl.next_index = 0
        tl.queues = None

    def begin_visit(self, site: str, url: str) -> None:
        tl = self._tl
        if getattr(tl, "site", None) != site:
            self.begin_site(site)
        visit = self.bundle.visit(site, tl.next_index)
        tl.next_index += 1
        queues: Dict[Tuple[str, str], deque] = {}
        for chain in visit.exchanges:
            hops = chain.get("hops") or []
            if not hops:
                continue
            first = hops[0].get("request") or {}
            key = (str(first.get("method", "GET")),
                   str(first.get("url", "")))
            queues.setdefault(key, deque()).append(hops)
        tl.queues = queues

    def end_visit(self) -> None:
        self._tl.queues = None

    # ------------------------------------------------------------------
    def fetch(self, request: HttpRequest, client: ClientIdentity
              ) -> Tuple[HttpResponse, List[ExchangeRecord]]:
        queues = getattr(self._tl, "queues", None)
        hops_data = None
        if queues:
            queue = queues.get((request.method, str(request.url)))
            if queue:
                hops_data = queue.popleft()
        if hops_data is None:
            with self._miss_lock:
                self.replay_misses += 1
            self.telemetry.metrics.counter("bundle_replay_misses").inc()
            self.telemetry.journal.emit(
                "bundle_replay_miss", url=str(request.url),
                method=request.method,
                site=getattr(self._tl, "site", None))
            response = HttpResponse.not_found()
            hops = [ExchangeRecord(request, response)]
        else:
            with self._miss_lock:
                self.replay_hits += 1
            response, hops = decode_hops(hops_data, self.bundle.blob,
                                         request)
        if self.record_exchanges:
            self.log.extend(hops)
        return response, hops


class ReplayWeb:
    """The minimal web facade a replay scan needs.

    Mirrors the attributes :class:`ScanPipeline` reads from
    :class:`SyntheticWeb` — ``network``, ``configs`` and
    ``site_count`` — plus the bundle itself so the pipeline can seed
    its corpus caches from the archive.
    """

    def __init__(self, bundle: Bundle, telemetry=None) -> None:
        self.bundle = bundle
        self.network = ReplayNetwork(bundle, telemetry=telemetry)
        self.configs = [SimpleNamespace(domain=site)
                        for site in bundle.sites()]
        self.site_count = len(self.configs)

    def front_urls(self, n: Optional[int] = None) -> List[str]:
        sites = self.bundle.sites()
        if n is not None:
            sites = sites[:n]
        out = []
        for site in sites:
            visits = self.bundle.visits(site)
            out.append(visits[0].url if visits else site)
        return out
