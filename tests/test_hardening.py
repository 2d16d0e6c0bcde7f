"""Tests for the WPM_hide hardening (paper Sec. 6.1/6.2)."""

import pytest

from repro.browser.profiles import openwpm_profile, stock_firefox_profile
from repro.core.fingerprint import (
    OpenWPMDetector,
    capture_template,
    diff_templates,
    run_probes,
)
from repro.core.hardening import (
    StealthJSInstrument,
    StealthSettings,
    sanitize_error_stack,
)
from repro.core.hardening.errors import stack_mentions_instrumentation
from repro.core.lab import make_window, visit_with_scripts
from repro.jsobject.errors import make_error_object, StackFrame
from repro.openwpm import BrowserParams, OpenWPMExtension


def stealth_window(**profile_kwargs):
    settings = StealthSettings.plausible()
    profile = openwpm_profile(
        "ubuntu", "regular",
        window_size=profile_kwargs.pop("window_size",
                                       settings.window_size),
        window_position=profile_kwargs.pop("window_position",
                                           settings.window_position))
    extension = OpenWPMExtension(BrowserParams(stealth=True),
                                 js_instrument=StealthJSInstrument())
    browser, window = make_window(profile, extension=extension)
    return extension, window


class TestFingerprintHiding:
    def test_detector_fooled(self):
        extension, window = stealth_window()
        report = OpenWPMDetector().test_window(window)
        assert not report.is_openwpm
        assert report.matched == []

    def test_webdriver_reads_false_but_access_recorded(self):
        extension, window = stealth_window()
        assert window.run_script("navigator.webdriver") is False
        assert any(r.symbol == "Navigator.webdriver"
                   for r in extension.js_instrument.records)

    def test_tostring_native_on_wrapped_method(self):
        extension, window = stealth_window()
        signature = window.run_script(
            "document.createElement('canvas').getContext('2d')"
            ".fillRect.toString()")
        assert signature == "function fillRect() {\n    [native code]\n}"

    def test_getter_descriptor_looks_native(self):
        extension, window = stealth_window()
        assert window.run_script("""
            Object.getOwnPropertyDescriptor(
                Object.getPrototypeOf(navigator), 'userAgent'
            ).get.toString().indexOf('[native code]') >= 0
        """) is True

    def test_no_dom_residue(self):
        extension, window = stealth_window()
        assert window.run_script("typeof window.getInstrumentJS") \
            == "undefined"
        assert window.run_script("typeof window.jsInstruments") \
            == "undefined"

    def test_no_prototype_pollution(self):
        extension, window = stealth_window()
        assert window.run_script(
            "Object.getPrototypeOf(screen)"
            ".hasOwnProperty('addEventListener')") is False

    def test_clean_stack_traces(self):
        extension, window = stealth_window()
        stack = window.run_script("""
            var s = "";
            try { screen.addEventListener(); } catch (e) { s = e.stack; }
            s
        """)
        assert "moz-extension" not in stack
        assert "openwpm" not in stack

    def test_surface_vs_stock_firefox_shows_no_tampering(self):
        _, stock = make_window(stock_firefox_profile("ubuntu"))
        extension, window = stealth_window()
        surface = diff_templates(capture_template(stock),
                                 capture_template(window))
        assert len(surface.tampered_functions()) == 0
        assert len(surface.added_custom_functions()) == 0
        assert not surface.webdriver_deviates()


class TestRecordingStillWorks:
    def test_api_accesses_recorded(self):
        extension, window = stealth_window()
        extension.js_instrument.clear_records()
        window.run_script("navigator.userAgent; screen.width;")
        symbols = {r.symbol for r in extension.js_instrument.records}
        assert "Navigator.userAgent" in symbols
        assert "Screen.width" in symbols

    def test_records_flow_to_storage(self):
        from repro.openwpm.storage import StorageController

        storage = StorageController()
        storage.begin_visit("https://lab.test/")
        extension = OpenWPMExtension(
            BrowserParams(stealth=True),
            storage=storage.recorder,
            js_instrument=StealthJSInstrument(storage=storage.recorder))
        visit_with_scripts(openwpm_profile("ubuntu", "regular"),
                           ["navigator.userAgent;"], extension=extension)
        storage.end_visit()
        assert any(r["symbol"] == "Navigator.userAgent"
                   for r in storage.javascript_records())

    def test_csp_cannot_block_installation(self):
        extension = OpenWPMExtension(BrowserParams(stealth=True),
                                     js_instrument=StealthJSInstrument())
        _, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["navigator.platform;"],
            extension=extension,
            csp_header="script-src 'self' 'unsafe-inline'; report-uri /c")
        assert extension.js_instrument.failed_windows == []
        assert any(r.symbol == "Navigator.platform"
                   for r in extension.js_instrument.records)

    def test_frame_policy_is_immediate(self):
        assert StealthJSInstrument().frame_policy == "immediate"
        extension = OpenWPMExtension(BrowserParams(stealth=True),
                                     js_instrument=StealthJSInstrument())
        assert extension.frame_policy == "immediate"


class TestStealthSettings:
    def test_plausible_geometry_differs_from_defaults(self):
        settings = StealthSettings.plausible()
        assert settings.window_size != (1366, 683)

    def test_apply_to_browser_params(self):
        params = BrowserParams()
        StealthSettings.plausible().apply_to_browser_params(params)
        assert params.stealth is True
        assert params.save_content == "all"
        assert params.window_size == StealthSettings.plausible().window_size


class TestErrorSanitiser:
    def _error_with_stack(self, lines):
        frames = []
        for line in lines:
            name, _, rest = line.partition("@")
            url, line_no, col = rest.rsplit(":", 2)
            frames.append(StackFrame(name, url, int(line_no), int(col)))
        return make_error_object("TypeError", "x", frames)

    def test_strips_instrument_frames(self):
        error = self._error_with_stack([
            "wrapper@moz-extension://openwpm/content.js:3:1",
            "caller@https://site.test/app.js:10:5",
        ])
        sanitize_error_stack(error)
        stack = error.get("stack")
        assert "moz-extension" not in stack
        assert "app.js" in stack

    def test_repoints_filename_to_first_page_frame(self):
        error = self._error_with_stack([
            "wrapper@moz-extension://openwpm/content.js:3:1",
            "caller@https://site.test/app.js:10:5",
        ])
        sanitize_error_stack(error)
        assert error.get("fileName") == "https://site.test/app.js"
        assert error.get("lineNumber") == 10.0

    def test_non_object_throw_values_pass_through(self):
        assert sanitize_error_stack("just a string") == "just a string"

    def test_mentions_helper(self):
        assert stack_mentions_instrumentation(
            "f@moz-extension://openwpm/x.js:1:1")
        assert not stack_mentions_instrumentation("f@https://a.test/x:1:1")
        assert not stack_mentions_instrumentation(None)
