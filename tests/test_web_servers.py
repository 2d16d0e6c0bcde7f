"""Tests for the synthetic-web servers' endpoint behaviour."""

import pytest

from repro.net.http import HttpRequest
from repro.net.network import ClientIdentity, Network
from repro.net.url import URL
from repro.web.servers import (
    BOT_INTEL,
    DetectorProviderServer,
    SiteServer,
    TrackerServer,
    flag_client,
    published_age,
    sync_intel,
)
from repro.web.sitegen import SiteConfig
from repro.web.tranco import TrancoSite


def make_config(**kwargs):
    site = TrancoSite(rank=1, domain="unit.test", categories=("News",))
    return SiteConfig(site=site, **kwargs)


def get(server, url, client=None, network=None):
    return server.handle(
        HttpRequest(url=URL.parse(url), resource_type="other"),
        client or ClientIdentity("unit-client"),
        network or Network())


class TestSiteServer:
    def test_front_page_is_pagespec(self):
        response = get(SiteServer(make_config()),
                       "https://www.unit.test/")
        assert response.page is not None
        assert response.page.csp_header == ""

    def test_front_page_sets_baseline_cookies(self):
        response = get(SiteServer(make_config()),
                       "https://www.unit.test/")
        names = {c.name for c in response.set_cookies}
        assert names == {"session_id", "prefs"}

    def test_csp_blocking_site_header(self):
        config = make_config(csp_blocking=True,
                             third_party_detectors=["yandex.ru"])
        response = get(SiteServer(config), "https://www.unit.test/")
        header = response.page.csp_header
        assert "script-src" in header
        assert "'unsafe-inline'" not in header
        assert "yandex.ru" in header
        assert "report-uri /csp-report" in header

    def test_intrinsic_violation_site_allows_inline(self):
        config = make_config(csp_intrinsic_violation=True)
        response = get(SiteServer(config), "https://www.unit.test/")
        assert "'unsafe-inline'" in response.page.csp_header
        assert any(getattr(item, "src", "").startswith(
            "https://rogue-cdn.example")
            for item in response.page.items if hasattr(item, "src"))

    def test_app_js_served(self):
        response = get(SiteServer(make_config()),
                       "https://www.unit.test/js/app.js")
        assert "javascript" in response.content_type
        assert "fetch" in response.body

    def test_detector_only_on_configured_subpage(self):
        config = make_config(sub_detector_form="plain",
                             sub_detector_page=2,
                             third_party_detectors=["yandex.ru"])
        server = SiteServer(config)
        page1 = get(server, "https://www.unit.test/p/1.html").page
        page2 = get(server, "https://www.unit.test/p/2.html").page
        def has_tag(page):
            return any("tag.js" in getattr(item, "src", "")
                       for item in page.items if hasattr(item, "src"))
        assert not has_tag(page1)
        assert has_tag(page2)

    def test_vendor_telemetry_flags_client(self):
        config = make_config(first_party_vendor="Akamai",
                             first_party_path="/akam/11/abc")
        server = SiteServer(config)
        network = Network()
        client = ClientIdentity("bot-x")
        get(server, "https://www.unit.test/akamai/telemetry?score=10&bot=1",
            client=client, network=network)
        assert network.state[BOT_INTEL].get("bot-x") is True
        # The site's own analytics now withholds the uid cookie.
        response = get(server, "https://www.unit.test/analytics/collect",
                       client=client, network=network)
        assert response.set_cookies == []

    def test_analytics_grants_uid_to_unflagged(self):
        server = SiteServer(make_config())
        response = get(server, "https://www.unit.test/analytics/collect")
        assert any(c.name == "_fp_uid" for c in response.set_cookies)

    def test_analytics_uid_is_the_same_from_a_fresh_server(self):
        def uid(server, client="unit-client"):
            response = get(server, "https://www.unit.test/analytics/collect",
                           client=ClientIdentity(client))
            return next(c.value for c in response.set_cookies
                        if c.name == "_fp_uid")

        first = uid(SiteServer(make_config()))
        assert first == uid(SiteServer(make_config()))
        assert len(first) == 20 and set(first) <= set("0123456789abcdef")
        assert uid(SiteServer(make_config()), "other-client") != first

    def test_unknown_path_404(self):
        assert get(SiteServer(make_config()),
                   "https://www.unit.test/nothing-here").status == 404

    def test_static_asset_content_types(self):
        server = SiteServer(make_config())
        assert get(server, "https://www.unit.test/img/x.png") \
            .content_type == "image/png"
        assert get(server, "https://www.unit.test/css/main.css") \
            .content_type == "text/css"
        assert get(server, "https://www.unit.test/media/clip.mp4") \
            .content_type == "video/mp4"


class TestDetectorProviderServer:
    def test_tag_form_selection(self):
        server = DetectorProviderServer("prov.test")
        plain = get(server, "https://prov.test/tag.js?form=plain")
        obfuscated = get(server,
                         "https://prov.test/tag.js?form=obfuscated")
        assert "navigator.webdriver" in plain.body
        assert "webdriver" not in obfuscated.body

    def test_report_collects_verdicts(self):
        server = DetectorProviderServer("prov.test")
        network = Network()
        client = ClientIdentity("c9")
        get(server, "https://prov.test/report?bot=1&site=x", client,
            network)
        get(server, "https://prov.test/report?bot=0&site=y", client,
            network)
        assert server.reports["c9"] == [True, False]
        assert network.state[BOT_INTEL].get("c9") is True


class TestTrackerServer:
    def test_gated_script_for_cloaking_provider(self):
        cloaking = TrackerServer("ads.test", cloaks=True)
        honest = TrackerServer("metrics.test", cloaks=False)
        assert "_botDetected" in get(
            cloaking, "https://ads.test/track.js").body
        assert "_botDetected" not in get(
            honest, "https://metrics.test/track.js").body

    def test_raw_intel_activation(self):
        server = TrackerServer("ads.test", cloaks=True,
                               activation_delay=0)
        network = Network()
        client = ClientIdentity("raw-bot")
        flag_client(network, client)
        response = server.handle(
            HttpRequest(url=URL.parse("https://ads.test/pixel?uid=u1x2"),
                        resource_type="image"), client, network)
        assert not any(c.name.startswith("_trk_")
                       for c in response.set_cookies)

    def test_delayed_activation_waits_for_sync(self):
        server = TrackerServer("ads.test", cloaks=True,
                               activation_delay=1)
        network = Network()
        client = ClientIdentity("late-bot")
        flag_client(network, client)
        assert server._is_bot(client, network) is False
        sync_intel(network)
        assert server._is_bot(client, network) is True

    def test_extra_uid_cookie(self):
        server = TrackerServer("ads.test", cloaks=True,
                               extra_uid_cookie=True)
        response = get(server, "https://ads.test/pixel?uid=u123456789")
        trk = [c.name for c in response.set_cookies
               if c.name.startswith(("_trk_", "_trkx_"))]
        assert len(trk) == 2

    def test_ad_fill_levels(self):
        network = Network()
        client = ClientIdentity("fill-bot")
        flag_client(network, client)
        sync_intel(network)
        frames = {}
        for fill in ("full", "partial", "none"):
            server = TrackerServer("ads.test", cloaks=True,
                                   bot_ad_fill=fill)
            body = server._ad_script(client, network)
            frames[fill] = body
        assert "impression" in frames["full"]
        assert "impression" not in frames["partial"]
        assert "viewability" in frames["partial"]
        assert "beacon" not in frames["none"]

    def test_published_age_increments_only_for_flagged(self):
        network = Network()
        flagged = ClientIdentity("f")
        clean = ClientIdentity("c")
        flag_client(network, flagged)
        sync_intel(network)
        assert published_age(network, flagged) == 1
        assert published_age(network, clean) == 0


class TestChallengeInterstitial:
    def _vendor_server(self, vendor="PerimeterX"):
        config = make_config(first_party_vendor=vendor,
                             first_party_path="/0a1b2c3d/init.js")
        return SiteServer(config)

    def test_unflagged_client_gets_full_site(self):
        server = self._vendor_server()
        response = get(server, "https://www.unit.test/")
        assert response.page.title != "One more step..."
        assert server.challenges_served == {}

    def test_flagged_client_gets_captcha_on_revisit(self):
        server = self._vendor_server()
        network = Network()
        client = ClientIdentity("blocked-bot")
        get(server, "https://www.unit.test/perimeterx/telemetry?bot=1",
            client=client, network=network)
        response = get(server, "https://www.unit.test/", client=client,
                       network=network)
        assert response.page.title == "One more step..."
        assert len(response.page.items) == 2
        assert server.challenges_served["blocked-bot"] == 1

    def test_soft_vendors_do_not_block(self):
        server = self._vendor_server(vendor="Akamai")
        network = Network()
        client = ClientIdentity("soft-bot")
        get(server, "https://www.unit.test/akamai/telemetry?bot=1",
            client=client, network=network)
        response = get(server, "https://www.unit.test/", client=client,
                       network=network)
        assert response.page.title != "One more step..."

    def test_challenge_assets_served(self):
        server = self._vendor_server()
        assert "javascript" in get(
            server,
            "https://www.unit.test/challenge/check.js").content_type
        assert get(server,
                   "https://www.unit.test/challenge/puzzle.png"
                   ).content_type == "image/png"
