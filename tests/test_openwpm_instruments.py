"""Unit tests for OpenWPM's instruments (vulnerable-by-design JS
instrument, HTTP instrument, cookie instrument)."""

import pytest

from repro.browser import Browser, openwpm_profile
from repro.core.lab import LAB_URL, make_window, visit_with_scripts
from repro.net.http import HttpRequest, HttpResponse, SetCookie
from repro.net.url import URL
from repro.openwpm import BrowserParams, OpenWPMExtension
from repro.openwpm.instruments.http_instrument import (
    HTTPInstrument,
    looks_like_javascript,
)
from repro.openwpm.instruments.js_instrument import (
    INSTRUMENT_SCRIPT_URL,
    JSInstrument,
)


def instrumented(params=None, scripts=None, **visit_kwargs):
    extension = OpenWPMExtension(params or BrowserParams())
    browser, result = visit_with_scripts(
        openwpm_profile("ubuntu", "regular"), scripts or [],
        extension=extension, **visit_kwargs)
    return extension, result


class TestJSInstrumentRecording:
    def test_property_get_recorded_with_value(self):
        extension, _ = instrumented(scripts=["navigator.platform;"])
        records = [r for r in extension.js_instrument.records
                   if r.symbol == "navigator.platform"]
        assert records and records[0].operation == "get"
        assert records[0].value == "Linux x86_64"

    def test_method_call_recorded_with_arguments(self):
        extension, _ = instrumented(
            scripts=["navigator.sendBeacon('https://lab.test/x', 'data');"])
        calls = [r for r in extension.js_instrument.records
                 if r.operation == "call"
                 and r.symbol == "navigator.sendBeacon"]
        assert calls
        assert "https://lab.test/x" in calls[0].arguments

    def test_script_url_attributed(self):
        extension, _ = instrumented(scripts=["screen.width;"])
        record = [r for r in extension.js_instrument.records
                  if r.symbol == "screen.width"][0]
        assert record.script_url.startswith("https://lab.test/")

    def test_set_attempt_recorded(self):
        extension, _ = instrumented(
            scripts=["navigator.sendBeacon = function () {};"])
        sets = [r for r in extension.js_instrument.records
                if r.operation == "set"
                and r.symbol == "navigator.sendBeacon"]
        assert sets

    def test_records_forwarded_to_storage(self):
        from repro.openwpm.storage import StorageController

        storage = StorageController()
        extension = OpenWPMExtension(BrowserParams(),
                                     storage=storage.recorder)
        storage.begin_visit(0, LAB_URL)
        visit_with_scripts(openwpm_profile("ubuntu", "regular"),
                           ["navigator.userAgent;"], extension=extension)
        storage.end_visit()
        assert any(r["symbol"] == "navigator.userAgent"
                   for r in storage.javascript_records())


class TestJSInstrumentFingerprint:
    """The vulnerable design's identifiable traces (Sec. 3.1.4)."""

    def test_wrapped_method_tostring_shows_listing1(self):
        extension, result = instrumented(scripts=[
            "window.sig = document.createElement('canvas')"
            ".getContext('2d').fillRect.toString();"])
        signature = result.top_window.window_object.get("sig")
        assert "logCall" in signature
        assert "getOriginatingScriptContext" in signature
        assert "[native code]" not in signature

    def test_get_instrument_js_residue(self):
        extension, result = instrumented(scripts=[
            "window.residue = typeof window.getInstrumentJS;"])
        assert result.top_window.window_object.get("residue") == "function"

    def test_legacy_v010_residue(self):
        from repro.core.lab import visit_with_scripts

        extension = OpenWPMExtension(
            BrowserParams(),
            js_instrument=JSInstrument(legacy_v010=True))
        _, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["window.a = typeof window.jsInstruments;"
             "window.b = typeof window.instrumentFingerprintingApis;"
             "window.c = typeof window.getInstrumentJS;"],
            extension=extension)
        window = result.top_window.window_object
        assert window.get("a") == "function"
        assert window.get("b") == "function"
        assert window.get("c") == "undefined"

    def test_prototype_pollution_fig2(self):
        extension, result = instrumented(scripts=[
            "window.polluted = Object.getPrototypeOf(screen)"
            ".hasOwnProperty('addEventListener');"])
        assert result.top_window.window_object.get("polluted") is True

    def test_instrument_frames_in_stack_traces(self):
        extension, result = instrumented(scripts=["""
            var sig = "";
            try { screen.addEventListener(); } catch (e) { sig = e.stack; }
            window.stackSig = sig;
        """])
        assert INSTRUMENT_SCRIPT_URL in \
            result.top_window.window_object.get("stackSig")

    def test_install_count_matches_table2(self):
        extension, result = instrumented()
        counts = list(extension.js_instrument.install_counts.values())
        assert counts[0] == 252  # ubuntu; macOS is 253

    def test_install_count_macos_253(self):
        extension = OpenWPMExtension(BrowserParams(os_name="macos"))
        make_window(openwpm_profile("macos", "regular"),
                    extension=extension)
        assert list(extension.js_instrument.install_counts.values())[0] \
            == 253

    def test_csp_blocks_installation(self):
        extension, result = instrumented(
            scripts=[], csp_header="script-src 'self'; report-uri /csp")
        assert extension.js_instrument.failed_windows
        assert any(e.request.resource_type == "csp_report"
                   for e in result.exchanges)

    def test_csp_blocked_window_released_after_next_visit(self):
        import gc
        import weakref

        from repro.core.lab import make_lab_network
        from repro.net.page import PageSpec

        blocked = PageSpec(url=LAB_URL, title="csp",
                           csp_header="script-src 'self'")
        open_page = PageSpec(url=LAB_URL + "open", title="open")
        network = make_lab_network(pages={"/": blocked,
                                          "/open": open_page})
        extension = OpenWPMExtension(BrowserParams())
        browser = Browser(openwpm_profile("ubuntu", "regular"), network,
                          extension=extension)
        browser.visit(LAB_URL, wait=1)
        failed = extension.js_instrument.failed_windows
        assert len(failed) == 1
        window = weakref.ref(failed[0])

        browser.visit(LAB_URL + "open", wait=1)
        assert extension.js_instrument.failed_windows == []
        gc.collect()
        assert window() is None


class TestHTTPInstrument:
    def _exchange(self, url, content_type):
        request = HttpRequest(url=URL.parse(url), resource_type="script",
                              top_frame_url=URL.parse("https://x.test/"))
        response = HttpResponse(content_type=content_type, body="BODY")
        return request, response

    def test_javascript_filter_by_content_type(self):
        request, response = self._exchange("https://x.test/a",
                                           "text/javascript")
        assert looks_like_javascript(response, request)

    def test_javascript_filter_by_extension(self):
        request, response = self._exchange("https://x.test/a.js",
                                           "text/plain")
        assert looks_like_javascript(response, request)

    def test_disguised_payload_evades_filter(self):
        """The Listing 4 precondition."""
        request, response = self._exchange("https://x.test/cheat",
                                           "text/plain")
        assert not looks_like_javascript(response, request)

    def test_save_modes(self):
        for mode, expect_saved in (("all", True), ("script", False),
                                   (None, False)):
            instrument = HTTPInstrument(save_content=mode)
            instrument.on_request(*self._exchange("https://x.test/cheat",
                                                  "text/plain"))
            assert bool(instrument.saved_bodies) is expect_saved

    def test_requests_by_type(self):
        instrument = HTTPInstrument(save_content=None)
        instrument.on_request(*self._exchange("https://x.test/a.js",
                                              "text/javascript"))
        assert instrument.requests_by_type() == {"script": 1}

    def test_third_party_flag(self):
        instrument = HTTPInstrument(save_content=None)
        request = HttpRequest(url=URL.parse("https://tracker.test/p"),
                              resource_type="image",
                              top_frame_url=URL.parse("https://site.test/"))
        instrument.on_request(request, HttpResponse())
        assert instrument.records[0].is_third_party


class TestCookieInstrument:
    def test_cookie_changes_recorded(self):
        extension, _ = instrumented(
            scripts=["document.cookie = 'seen=yes1234; Max-Age=86400';"])
        records = extension.cookie_instrument.records
        assert any(r.name == "seen" and r.via_javascript for r in records)

    def test_first_vs_third_party_split(self):
        from repro.openwpm.instruments.cookie_instrument import (
            CookieInstrument,
        )
        from repro.browser.cookies import Cookie

        instrument = CookieInstrument()
        instrument.on_cookie_change(Cookie(
            name="a", value="1", domain="site.test",
            first_party_host="site.test"), "added")
        instrument.on_cookie_change(Cookie(
            name="b", value="2", domain="tracker.test",
            first_party_host="site.test"), "added")
        assert len(instrument.first_party_cookies()) == 1
        assert len(instrument.third_party_cookies()) == 1
