"""Unit tests for the browser window JS wiring."""

import pytest

from repro.browser import Browser, openwpm_profile
from repro.core.lab import LAB_URL, make_lab_network, make_window, \
    visit_with_scripts
from repro.net.http import HttpResponse
from repro.net.network import FunctionServer, Network
from repro.net.page import PageSpec, ScriptItem


class TestFingerprintWiring:
    def test_navigator_values_from_profile(self, openwpm_window):
        w = openwpm_window
        assert "Firefox" in w.run_script("navigator.userAgent")
        assert w.run_script("navigator.webdriver") is True
        assert w.run_script("navigator.platform") == "Linux x86_64"

    def test_screen_values(self, openwpm_window):
        assert openwpm_window.run_script("screen.width") == 2560.0
        assert openwpm_window.run_script("screen.availTop") == 27.0

    def test_window_geometry(self, openwpm_window):
        assert openwpm_window.run_script("window.innerWidth") == 1366.0
        assert openwpm_window.run_script("window.innerHeight") == 683.0

    def test_geometry_offset_per_window_on_ubuntu(self):
        from repro.net.url import URL

        network = make_lab_network()
        browser = Browser(openwpm_profile("ubuntu", "regular"), network)
        first = browser.visit(LAB_URL, wait=0).top_window
        second_result = browser.visit(LAB_URL, wait=0)
        second = second_result.top_window
        x1 = first.run_script("window.screenX")
        x2 = second.run_script("window.screenX")
        assert x2 - x1 == 8.0  # Table 3: each window shifts by the offset

    def test_webgl_context_via_canvas(self, openwpm_window):
        assert openwpm_window.run_script(
            "document.createElement('canvas').getContext('webgl').VENDOR"
        ) == "AMD"

    def test_headless_webgl_is_null(self):
        _, window = make_window(openwpm_profile("ubuntu", "headless"))
        assert window.run_script(
            "document.createElement('canvas').getContext('webgl') === null"
        ) is True

    def test_font_check(self, openwpm_window):
        assert openwpm_window.run_script(
            "document.fonts.check('12px Ubuntu')") is True
        assert openwpm_window.run_script(
            "document.fonts.check('12px NotInstalledFont')") is False

    def test_measure_text_differs_for_installed_font(self, openwpm_window):
        width = openwpm_window.run_script("""
            var ctx = document.createElement('canvas').getContext('2d');
            ctx.font = '12px sans-serif';
            var base = ctx.measureText('mmm').width;
            ctx.font = '12px Ubuntu';
            var ubuntu = ctx.measureText('mmm').width;
            ubuntu !== base
        """)
        assert width is True

    def test_timezone(self, openwpm_window):
        assert openwpm_window.run_script(
            "new Date().getTimezoneOffset()") == -60.0

    def test_docker_timezone_zero(self):
        _, window = make_window(openwpm_profile("ubuntu", "docker"))
        assert window.run_script("new Date().getTimezoneOffset()") == 0.0

    def test_freeze_leaves_other_windows_of_the_profile_alone(self):
        """The WebGL constants are shared by every window of a profile;
        a page freezing them must not freeze them for later windows."""
        profile = openwpm_profile("ubuntu", "regular")
        vendor = ("Object.getOwnPropertyDescriptor("
                  "WebGLRenderingContext.prototype, 'VENDOR')")
        _, first = make_window(profile)
        assert first.run_script(
            "Object.freeze(WebGLRenderingContext.prototype); "
            f"{vendor}.configurable") is False
        assert first.run_script(f"{vendor}.writable") is False
        _, later = make_window(profile)
        assert later.run_script(f"{vendor}.configurable") is True
        assert later.run_script(f"{vendor}.writable") is False
        assert later.run_script(
            "Object.defineProperty(WebGLRenderingContext.prototype, "
            "'VENDOR', {value: 1}); WebGLRenderingContext.prototype"
            ".VENDOR") == 1.0

    def test_languages_array(self, openwpm_window):
        assert openwpm_window.run_script(
            "navigator.languages.join(',')") == "en-US,en"


class TestTimersAndEval:
    def test_set_timeout_runs_on_event_loop(self):
        browser, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["setTimeout(function () { window.fired = true; }, 1000);"],
            wait=5.0)
        assert result.top_window.window_object.get("fired") is True

    def test_clear_timeout_cancels(self):
        browser, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["var id = setTimeout(function () { window.fired = true; }, "
             "1000); clearTimeout(id);"], wait=5.0)
        from repro.jsobject import UNDEFINED

        assert result.top_window.window_object.get("fired") is UNDEFINED

    def test_eval_executes_in_page(self, openwpm_window):
        assert openwpm_window.run_script("eval('2 + 3')") == 5.0

    def test_eval_blocked_by_csp(self):
        browser, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"), [],
            csp_header="script-src 'self' 'unsafe-inline'; report-uri /csp")
        window = result.top_window
        window.run_script("var ok = true; try { eval('1'); } "
                          "catch (e) { ok = false; } window.evalOk = ok;")
        assert window.window_object.get("evalOk") is False


class TestNetworkAPIs:
    def _browser_with_endpoint(self, body="payload", scripts=None):
        page = PageSpec(url=LAB_URL, items=[
            ScriptItem(source=s) for s in (scripts or [])])
        network = Network()

        def serve(request, client, net):
            if request.url.path == "/data":
                return HttpResponse(content_type="text/plain", body=body)
            return HttpResponse(page=page, body=page.to_html())

        network.register_domain("lab.test", FunctionServer(serve))
        browser = Browser(openwpm_profile("ubuntu", "regular"), network)
        return browser, browser.visit(LAB_URL, wait=5)

    def test_fetch_then_chain(self):
        browser, result = self._browser_with_endpoint(
            scripts=["fetch('/data').then(function (r) { return r.text(); })"
                     ".then(function (t) { window.got = t; });"])
        assert result.top_window.window_object.get("got") == "payload"

    def test_xhr(self):
        browser, result = self._browser_with_endpoint(
            scripts=["""
                var xhr = new XMLHttpRequest();
                xhr.open('GET', '/data');
                xhr.onload = function () { window.got = xhr.responseText; };
                xhr.send();
            """])
        assert result.top_window.window_object.get("got") == "payload"

    def test_image_src_fires_request(self):
        browser, result = self._browser_with_endpoint(
            scripts=["var i = new Image(); i.src = '/data';"])
        assert any(e.request.url.path == "/data"
                   and e.request.resource_type == "image"
                   for e in result.exchanges)

    def test_beacon_resource_type(self):
        browser, result = self._browser_with_endpoint(
            scripts=["navigator.sendBeacon('/data');"])
        assert any(e.request.resource_type == "beacon"
                   for e in result.exchanges)

    def test_websocket_handshake_request(self):
        browser, result = self._browser_with_endpoint(
            scripts=["new WebSocket('wss://lab.test/live');"])
        assert any(e.request.resource_type == "websocket"
                   for e in result.exchanges)

    def test_local_storage_persists_within_origin(self, openwpm_window):
        openwpm_window.run_script("localStorage.setItem('k', 'v');")
        assert openwpm_window.run_script("localStorage.getItem('k')") == "v"

    def test_document_cookie_roundtrip(self):
        browser, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["document.cookie = 'a=1; Max-Age=60';"
             " window.jar = document.cookie;"])
        assert "a=1" in result.top_window.window_object.get("jar")
