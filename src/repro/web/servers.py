"""Servers of the synthetic web.

Four server families:

* :class:`SiteServer` — first-party pages: front page, subpages, widget
  iframes, own scripts (app/analytics/decoy), first-party bot-management
  scripts, CSP headers and report endpoint, own cookies.
* :class:`DetectorProviderServer` — third-party bot-detection scripts;
  its ``/report`` endpoint feeds a shared "bot intel" blackboard keyed
  by client IP (the server-side re-identification channel).
* :class:`TrackerServer` — ad/tracking networks: tag scripts, tracking
  pixels with uid cookies, ad iframes, extra ad scripts. *Cloaks*: once
  a client is known to be a bot (client-side flag or shared intel), it
  withholds tracking cookies and trims ad traffic — producing the
  WPM vs WPM_hide differences of Tables 8-10.
* :class:`CDNServer` / :class:`OpenWPMProviderServer` — benign library
  hosting and the Table 6 OpenWPM-residue probes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.net.http import HttpRequest, HttpResponse, SetCookie
from repro.net.network import ClientIdentity, Network, Server
from repro.net.page import (
    IFrameItem,
    LinkItem,
    PageSpec,
    ResourceItem,
    ScriptItem,
)
from repro.net.http import ResourceType
from repro.web import detector_scripts as corpus
from repro.web.sitegen import SiteConfig

#: Key under which detection providers share bot verdicts (models the
#: ad industry's data sharing; keyed by client IP).
BOT_INTEL = "bot-intel"
#: Published (batch-synced) view of the intel: client -> number of sync
#: cycles the client has been on the list. Trackers consume this view,
#: so re-identification takes effect only from the *next* crawl run —
#: the paper's r1 -> r3 amplification (Sec. 6.3).
BOT_INTEL_PUBLISHED = "bot-intel-published"


def flag_client(network: Network, client: ClientIdentity) -> None:
    network.state[BOT_INTEL][client.client_id] = True


def client_flagged(network: Network, client: ClientIdentity) -> bool:
    """Raw (unsynced) verdict — what the detection provider itself knows."""
    return bool(network.state[BOT_INTEL].get(client.client_id))


def published_age(network: Network, client: ClientIdentity) -> int:
    """How many sync cycles the client has been on the published list."""
    return int(network.state[BOT_INTEL_PUBLISHED].get(client.client_id, 0))


def sync_intel(network: Network) -> None:
    """Batch-publish the intel (run between crawl repetitions)."""
    published = network.state[BOT_INTEL_PUBLISHED]
    for client_id, flagged in network.state[BOT_INTEL].items():
        if flagged:
            published[client_id] = published.get(client_id, 0) + 1


def _query_params(request: HttpRequest) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for pair in request.url.query.split("&"):
        if "=" in pair:
            key, _, value = pair.partition("=")
            params[key] = value
    return params


# ---------------------------------------------------------------------------
# First-party site server
# ---------------------------------------------------------------------------

#: First-party vendors that respond to a confirmed bot with a CAPTCHA
#: interstitial on revisits (Sec. 4.3.2: "one should expect sites with
#: first-party detectors to ... serve CAPTCHAs").
HARD_BLOCKING_VENDORS = frozenset({"PerimeterX"})


class SiteServer(Server):
    """Serves one synthetic first-party site from its :class:`SiteConfig`."""

    def __init__(self, config: SiteConfig) -> None:
        self.config = config
        #: Clients the site's own bot management has flagged.
        self._site_flagged: Dict[str, bool] = {}
        #: Challenge interstitials served, per client (for auditing).
        self.challenges_served: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def handle(self, request: HttpRequest, client: ClientIdentity,
               network: Network) -> HttpResponse:
        path = request.url.path
        if path == "/" or path == "/index.html":
            return self._front_page(client, network)
        if path.startswith("/p/"):
            return self._subpage(path, client, network)
        if path.startswith("/widget/"):
            return self._widget_page()
        if path == "/js/app.js":
            return self._script(self._app_source())
        if path == "/js/analytics.js":
            return self._script(corpus.FIRST_PARTY_ANALYTICS)
        if path == "/js/dom-probe.js" \
                and self.config.dom_probe_variant is not None:
            return self._script(corpus.dom_probe_script(
                self.config.dom_probe_variant))
        if path == "/js/ua-check.js":
            return self._script(corpus.DECOY_UA_SCRIPT)
        if path == self.config.first_party_path.split("?")[0] \
                and self.config.first_party_vendor:
            return self._script(corpus.first_party_detector(
                self.config.first_party_vendor))
        if path.startswith("/analytics/collect"):
            return self._analytics_beacon(client)
        if "/telemetry" in path:
            return self._vendor_telemetry(request, client, network)
        if path == "/csp-report":
            return HttpResponse(status=204, content_type="text/plain")
        if path.startswith("/challenge/"):
            if path.endswith(".js"):
                return self._script(
                    "(function () { /* solve the puzzle */ })();")
            return HttpResponse(content_type="image/png", body="PNG")
        if path == "/api/data":
            return HttpResponse(content_type="application/json",
                                body='{"items": [1, 2, 3]}')
        if path.startswith(("/img/", "/media/", "/fonts/", "/css/")):
            return self._static_asset(path)
        return HttpResponse.not_found()

    # ------------------------------------------------------------------
    def _csp_header(self) -> str:
        config = self.config
        if not (config.csp_blocking or config.csp_intrinsic_violation):
            return ""
        allowed: List[str] = ["'self'"]
        if not config.csp_blocking:
            allowed.append("'unsafe-inline'")
        hosts = set(config.third_party_detectors)
        hosts.update(config.trackers)
        hosts.update(config.openwpm_providers)
        hosts.add("jslib-cdn.example")
        if config.has_iterator:
            hosts.add("audience-graph.net")
        allowed.extend(sorted(hosts))
        return "script-src " + " ".join(allowed) + "; report-uri /csp-report"

    def _front_page(self, client: ClientIdentity,
                    network: Network) -> HttpResponse:
        config = self.config
        if config.first_party_vendor in HARD_BLOCKING_VENDORS \
                and self._site_flagged.get(client.client_id):
            return self._challenge_page(client)
        items: List = [
            ScriptItem(src="https://jslib-cdn.example/lib.js"),
            ResourceItem(url="/css/main.css",
                         resource_type=ResourceType.STYLESHEET),
            ResourceItem(url="https://fonts-cdn.example/sans.woff2",
                         resource_type=ResourceType.FONT),
            ScriptItem(src="/js/app.js"),
        ]
        if config.csp_intrinsic_violation:
            # A script host missing from the site's own allow list:
            # blocked on every client, producing the baseline csp_report
            # traffic WPM_hide still sees (Table 8).
            items.append(ScriptItem(src="https://rogue-cdn.example/x.js"))
        if config.first_party_vendor:
            items.append(ScriptItem(src=config.first_party_path))
        # Half the trackers load before the detectors: in the first run
        # they still see an unflagged client (the r1 -> r3 amplification).
        early = config.trackers[: len(config.trackers) // 2]
        late = config.trackers[len(config.trackers) // 2:]
        for tracker in early:
            items.append(ScriptItem(src=f"https://{tracker}/track.js"))
        if config.front_detector_form:
            for provider in config.third_party_detectors:
                items.append(ScriptItem(
                    src=f"https://{provider}/tag.js"
                        f"?form={config.front_detector_form}"))
        for provider in config.openwpm_providers:
            items.append(ScriptItem(src=f"https://{provider}/owpm.js"))
        if config.has_decoy:
            items.append(ScriptItem(src="/js/ua-check.js"))
        if config.has_iterator:
            items.append(ScriptItem(
                src="https://audience-graph.net/fp.js"))
        for tracker in late:
            items.append(ScriptItem(src=f"https://{tracker}/track.js"))
        items.append(ScriptItem(src="/js/analytics.js"))
        if config.dom_probe_variant is not None:
            items.append(ScriptItem(src="/js/dom-probe.js"))
        for index in range(config.n_images):
            items.append(ResourceItem(url=f"/img/{index}.png"))
        if config.has_media:
            items.append(ResourceItem(url="/media/clip.mp4",
                                      resource_type=ResourceType.MEDIA))
        if config.has_object:
            items.append(ResourceItem(url="/media/legacy.swf",
                                      resource_type=ResourceType.OBJECT))
        items.append(ResourceItem(url=f"/img/hero-set-{config.n_images}.png",
                                  resource_type=ResourceType.IMAGESET))
        for index in range(config.n_widget_iframes):
            items.append(IFrameItem(src=f"/widget/{index}.html"))
        if config.has_ad_iframe and config.trackers:
            items.append(IFrameItem(
                src=f"https://{config.trackers[0]}/adframe.html"))
        for index in range(1, config.subpage_count + 1):
            items.append(LinkItem(href=f"/p/{index}.html",
                                  text=f"section {index}"))
        # An off-site link that must NOT count as a subpage (eTLD+1 rule).
        items.append(LinkItem(href="https://jslib-cdn.example/docs",
                              text="docs"))

        page = PageSpec(url=f"https://www.{config.domain}/",
                        title=config.domain,
                        csp_header=self._csp_header(), items=items)
        return HttpResponse(
            page=page, body=page.to_html(),
            set_cookies=self._front_cookies(client))

    def _front_cookies(self, client: ClientIdentity) -> List[SetCookie]:
        token = hashlib.sha256(
            f"{self.config.domain}:{client.client_id}".encode()
        ).hexdigest()
        return [
            SetCookie("session_id", token[:16]),
            SetCookie("prefs", "layout=a", max_age=86400 * 30),
        ]

    def _subpage(self, path: str, client: ClientIdentity,
                 network: Network) -> HttpResponse:
        config = self.config
        items: List = [
            ScriptItem(src="/js/app.js"),
            ResourceItem(url="/img/sub-banner.png"),
            ResourceItem(url="/img/sub-photo.png"),
        ]
        page_index = path[len("/p/"):].split(".")[0]
        if config.sub_detector_form \
                and page_index == str(config.sub_detector_page):
            for provider in config.third_party_detectors:
                items.append(ScriptItem(
                    src=f"https://{provider}/tag.js"
                        f"?form={config.sub_detector_form}"))
        for tracker in config.trackers[:2]:
            items.append(ScriptItem(src=f"https://{tracker}/track.js"))
        items.append(LinkItem(href="/", text="home"))
        page = PageSpec(url=f"https://www.{config.domain}{path}",
                        title=f"{config.domain}{path}",
                        csp_header=self._csp_header(), items=items)
        return HttpResponse(page=page, body=page.to_html())

    def _challenge_page(self, client: ClientIdentity) -> HttpResponse:
        """A CAPTCHA interstitial: the whole site is withheld."""
        self.challenges_served[client.client_id] = \
            self.challenges_served.get(client.client_id, 0) + 1
        page = PageSpec(
            url=f"https://www.{self.config.domain}/",
            title="One more step...",
            items=[
                ScriptItem(src=self.config.first_party_path or
                           "/challenge/check.js"),
                ResourceItem(url="/challenge/puzzle.png"),
            ])
        return HttpResponse(page=page, body=page.to_html())

    def _widget_page(self) -> HttpResponse:
        page = PageSpec(url=f"https://www.{self.config.domain}/widget",
                        title="widget",
                        csp_header=self._csp_header(), items=[])
        return HttpResponse(page=page, body=page.to_html())

    # ------------------------------------------------------------------
    def _app_source(self) -> str:
        parts = ["""
(function () {
    fetch("/api/data").then(function (res) { return res.text(); });
    fetch("/api/data").then(function (res) { return res.text(); });
})();
"""]
        if self.config.has_websocket:
            parts.append(
                'new WebSocket("wss://www.' + self.config.domain
                + '/live");\n')
        return "\n".join(parts)

    def _script(self, source: str) -> HttpResponse:
        from repro.net.page import ScriptFile

        return HttpResponse(
            content_type="text/javascript", body=source,
            script=ScriptFile(url="", source=source))

    def _analytics_beacon(self, client: ClientIdentity) -> HttpResponse:
        if self._site_flagged.get(client.client_id):
            return HttpResponse(status=204, content_type="text/plain")
        # A pure function of site and client, so a seeded crawl sets
        # the same uid in every run and every worker process.
        uid = hashlib.sha256(
            f"{self.config.domain}:{client.client_id}".encode()
        ).hexdigest()[:20]
        return HttpResponse(
            status=204, content_type="text/plain",
            set_cookies=[SetCookie("_fp_uid", uid, max_age=86400 * 180)])

    def _vendor_telemetry(self, request: HttpRequest,
                          client: ClientIdentity,
                          network: Network) -> HttpResponse:
        params = _query_params(request)
        if params.get("bot") == "1":
            self._site_flagged[client.client_id] = True
            flag_client(network, client)
        return HttpResponse(status=204, content_type="text/plain")

    def _static_asset(self, path: str) -> HttpResponse:
        if path.startswith("/media/"):
            return HttpResponse(content_type="video/mp4", body="MP4DATA")
        if path.startswith("/fonts/"):
            return HttpResponse(content_type="font/woff2", body="WOFF")
        if path.startswith("/css/"):
            return HttpResponse(content_type="text/css",
                                body="body { margin: 0; }")
        return HttpResponse(content_type="image/png", body="PNGDATA")


# ---------------------------------------------------------------------------
# Third-party detector provider
# ---------------------------------------------------------------------------

class DetectorProviderServer(Server):
    """Serves detector tags and collects verdicts for a provider domain."""

    def __init__(self, domain: str) -> None:
        self.domain = domain
        #: (client_id -> bot verdicts received)
        self.reports: Dict[str, List[bool]] = {}

    def handle(self, request: HttpRequest, client: ClientIdentity,
               network: Network) -> HttpResponse:
        from repro.net.page import ScriptFile

        path = request.url.path
        params = _query_params(request)
        if path == "/tag.js":
            form = params.get("form", "plain")
            source = corpus.selenium_detector(self.domain, form=form)
            return HttpResponse(content_type="text/javascript",
                                body=source,
                                script=ScriptFile(url="", source=source))
        if path == "/report":
            is_bot = params.get("bot") == "1"
            self.reports.setdefault(client.client_id, []).append(is_bot)
            if is_bot:
                flag_client(network, client)
            return HttpResponse(status=204, content_type="text/plain")
        if path == "/fp.js":
            source = corpus.iterator_fingerprinter(self.domain)
            return HttpResponse(content_type="text/javascript",
                                body=source,
                                script=ScriptFile(url="", source=source))
        if path.startswith("/fp"):
            return HttpResponse(status=204, content_type="text/plain")
        return HttpResponse.not_found()


class OpenWPMProviderServer(Server):
    """Serves the OpenWPM-residue probes of Table 6."""

    def __init__(self, domain: str, probes: tuple,
                 statically_visible: bool) -> None:
        self.domain = domain
        self.probes = probes
        self.statically_visible = statically_visible
        self.reports: Dict[str, List[bool]] = {}

    def handle(self, request: HttpRequest, client: ClientIdentity,
               network: Network) -> HttpResponse:
        from repro.net.page import ScriptFile

        path = request.url.path
        params = _query_params(request)
        if path == "/owpm.js":
            source = corpus.openwpm_detector(
                self.domain, self.probes,
                obfuscated=not self.statically_visible)
            return HttpResponse(content_type="text/javascript",
                                body=source,
                                script=ScriptFile(url="", source=source))
        if path == "/report":
            is_bot = params.get("owpm") == "1"
            self.reports.setdefault(client.client_id, []).append(is_bot)
            if is_bot:
                flag_client(network, client)
            return HttpResponse(status=204, content_type="text/plain")
        return HttpResponse.not_found()


# ---------------------------------------------------------------------------
# Trackers / advertisers (the cloaking party)
# ---------------------------------------------------------------------------

class TrackerServer(Server):
    """An ad/tracking network that treats known bots differently."""

    def __init__(self, domain: str, cloaks: bool = True,
                 bot_ad_fill: str = "full",
                 activation_delay: int = 1,
                 extra_uid_cookie: bool = False) -> None:
        self.domain = domain
        self.cloaks = cloaks
        self.bot_ad_fill = bot_ad_fill
        #: How many intel sync cycles before this network acts on a
        #: listed client (cautious networks wait for confirmation).
        self.activation_delay = activation_delay
        self.extra_uid_cookie = extra_uid_cookie

    def _is_bot(self, client: ClientIdentity, network: Network) -> bool:
        if not self.cloaks:
            return False
        if self.activation_delay == 0:
            # Networks that run their own detection (ad-verification
            # firms) act on the raw verdict within the same run.
            return client_flagged(network, client)
        return published_age(network, client) >= self.activation_delay

    def handle(self, request: HttpRequest, client: ClientIdentity,
               network: Network) -> HttpResponse:
        from repro.net.page import ScriptFile

        path = request.url.path
        params = _query_params(request)
        if path == "/track.js":
            source = corpus.tracker_script(self.domain, gated=self.cloaks)
            return HttpResponse(content_type="text/javascript",
                                body=source,
                                script=ScriptFile(url="", source=source))
        if path == "/pixel":
            uid = params.get("uid", "anon")
            name = "_trk_" + hashlib.sha256(
                self.domain.encode()).hexdigest()[:6]
            # Every client gets the operational cookies; only clients
            # believed human get the identifying uid cookie.
            cookies = [
                SetCookie("_sess_" + name[5:9], uid[:8]),
                SetCookie("_cfg_" + name[5:9], "v2-defaults",
                          max_age=86400 * 365),
                SetCookie("_consent_" + name[5:9], "granted-all",
                          max_age=86400 * 365),
            ]
            deny_uid = self.cloaks and (
                params.get("bot") == "1"
                or self._is_bot(client, network)
                or uid == "denied")
            if not deny_uid:
                cookies.append(SetCookie(name, uid, max_age=86400 * 365))
                if self.extra_uid_cookie:
                    cookies.append(SetCookie(
                        name.replace("_trk_", "_trkx_"), uid[::-1],
                        max_age=86400 * 365))
            return HttpResponse(content_type="image/gif", body="GIF",
                                set_cookies=cookies)
        if path == "/adframe.html":
            return self._ad_frame(client, network)
        if path == "/ad.js":
            source = self._ad_script(client, network)
            return HttpResponse(content_type="text/javascript",
                                body=source,
                                script=ScriptFile(url="", source=source))
        if path == "/fp.js":
            # Analytics networks also ship property-sweep
            # fingerprinters (the honey-property 'inconclusive' class).
            source = corpus.iterator_fingerprinter(self.domain)
            return HttpResponse(content_type="text/javascript",
                                body=source,
                                script=ScriptFile(url="", source=source))
        if path.startswith(("/creative", "/beacon", "/fp")):
            return HttpResponse(status=204, content_type="text/plain")
        return HttpResponse.not_found()

    def _ad_frame(self, client: ClientIdentity,
                  network: Network) -> HttpResponse:
        # The frame itself renders for everyone; known bots just get a
        # cheaper fill (one creative, inert auction script).
        items = [ScriptItem(src="/ad.js"),
                 ResourceItem(url="/creative/banner.png")]
        if not self._is_bot(client, network) or self.bot_ad_fill == "full":
            items.append(ResourceItem(url="/creative/alt.png"))
        page = PageSpec(url=f"https://{self.domain}/adframe.html",
                        title="ad", items=items)
        return HttpResponse(page=page, body=page.to_html())

    def _ad_script(self, client: ClientIdentity,
                   network: Network) -> str:
        full = """
(function () {
    var img = new Image();
    img.src = "https://%s/creative/impression.png";
    navigator.sendBeacon("https://%s/beacon/viewability");
    fetch("https://%s/beacon/bid").then(function (r) { return r.text(); });
})();
""" % (self.domain, self.domain, self.domain)
        if not self._is_bot(client, network):
            return full
        if self.bot_ad_fill == "full":
            return full
        if self.bot_ad_fill == "partial":
            # No impression pixel for bots; auction still runs.
            return """
(function () {
    navigator.sendBeacon("https://%s/beacon/viewability");
    fetch("https://%s/beacon/bid").then(function (r) { return r.text(); });
})();
""" % (self.domain, self.domain)
        return "(function () { /* no auction for bots */ })();"


# ---------------------------------------------------------------------------
# Benign CDN
# ---------------------------------------------------------------------------

class CDNServer(Server):
    """Serves the shared benign library and static assets."""

    def handle(self, request: HttpRequest, client: ClientIdentity,
               network: Network) -> HttpResponse:
        from repro.net.page import ScriptFile

        path = request.url.path
        if path.endswith(".js"):
            return HttpResponse(content_type="text/javascript",
                                body=corpus.BENIGN_LIBRARY,
                                script=ScriptFile(
                                    url="", source=corpus.BENIGN_LIBRARY))
        if path.endswith(".woff2"):
            return HttpResponse(content_type="font/woff2", body="WOFF")
        if path == "/docs":
            page = PageSpec(url=str(request.url), title="docs", items=[])
            return HttpResponse(page=page, body=page.to_html())
        return HttpResponse(content_type="text/plain", body="cdn")
