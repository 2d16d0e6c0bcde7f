"""Tests for the engine-level (debugger-API-style) instrument."""

import pytest

from repro.browser.profiles import openwpm_profile, stock_firefox_profile
from repro.core.fingerprint import capture_template, diff_templates, \
    run_probes
from repro.core.hardening import DebuggerJSInstrument
from repro.core.lab import make_window, visit_with_scripts
from repro.openwpm import BrowserParams, OpenWPMExtension


def debugger_extension(storage=None):
    return OpenWPMExtension(BrowserParams(stealth=True), storage=storage,
                            js_instrument=DebuggerJSInstrument(
                                storage=storage))


class TestRecording:
    def test_property_gets_recorded(self):
        extension = debugger_extension()
        _, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["navigator.userAgent; screen.width;"], extension=extension)
        symbols = set(extension.js_instrument.symbols_accessed())
        assert "Navigator.userAgent" in symbols
        assert "Screen.width" in symbols

    def test_method_calls_recorded_with_args(self):
        extension = debugger_extension()
        visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["navigator.sendBeacon('https://lab.test/b');"],
            extension=extension)
        calls = [r for r in extension.js_instrument.records
                 if r.operation == "call"
                 and r.symbol == "Navigator.sendBeacon"]
        assert calls and "lab.test" in calls[0].arguments

    def test_set_attempts_recorded(self):
        extension = debugger_extension()
        visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["navigator.customFlag = 1;"], extension=extension)
        assert any(r.operation == "set"
                   and r.symbol == "Navigator.customFlag"
                   for r in extension.js_instrument.records)

    def test_unmonitored_interfaces_ignored(self):
        extension = debugger_extension()
        visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["document.createElement('div');"], extension=extension)
        assert not any("Document" in r.symbol
                       for r in extension.js_instrument.records)

    def test_iframe_accesses_covered_same_tick(self):
        """No Listing 3 gap: engine hooks exist from frame creation."""
        extension = debugger_extension()
        _, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"), ["""
                var ifr = document.createElement('iframe');
                document.body.appendChild(ifr);
                ifr.contentWindow.navigator.userAgent;
            """], extension=extension)
        assert result.script_errors == []
        count = sum(1 for r in extension.js_instrument.records
                    if r.symbol == "Navigator.userAgent")
        assert count >= 1


class TestZeroFootprint:
    def test_fingerprint_surface_identical_to_uninstrumented(self):
        _, stock = make_window(stock_firefox_profile("ubuntu"))
        extension = debugger_extension()
        _, window = make_window(openwpm_profile("ubuntu", "regular"),
                                extension=extension)
        _, plain = make_window(openwpm_profile("ubuntu", "regular"))
        surface = diff_templates(capture_template(plain),
                                 capture_template(window))
        # The instrumented window is byte-identical to an
        # uninstrumented one of the same profile.
        assert len(surface) == 0

    def test_probe_script_sees_nothing(self):
        extension = debugger_extension()
        _, window = make_window(openwpm_profile("ubuntu", "regular"),
                                extension=extension)
        probes = run_probes(window)
        assert probes["userAgentGetterNative"] is True
        assert probes["fillRectNative"] is True
        assert probes["screenProtoPolluted"] is False
        assert probes["instrumentInStack"] is False
        assert probes["hasGetInstrumentJS"] is False

    def test_install_count_is_zero(self):
        extension = debugger_extension()
        _, window = make_window(openwpm_profile("ubuntu", "regular"),
                                extension=extension)
        assert extension.js_instrument.install_counts[id(window)] == 0

    def test_dispatcher_attack_has_no_surface(self):
        """Listing 2 finds no event channel to steal."""
        from repro.core.attacks.dispatcher import (
            BLOCK_RECORDING_ATTACK,
            PROBE_ACTIVITY,
        )

        extension = debugger_extension()
        visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            [BLOCK_RECORDING_ATTACK, PROBE_ACTIVITY],
            extension=extension)
        symbols = set(extension.js_instrument.symbols_accessed())
        # Recording keeps working right through the attack.
        assert "Navigator.platform" in symbols
        assert "Screen.width" in symbols

    def test_csp_cannot_block(self):
        extension = debugger_extension()
        visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            [],
            extension=extension,
            csp_header="script-src 'self'; report-uri /csp")
        assert extension.js_instrument.failed_windows == []

    def test_records_flow_to_storage(self):
        from repro.openwpm.storage import StorageController

        storage = StorageController()
        storage.begin_visit(0, "https://lab.test/")
        extension = debugger_extension(storage=storage.recorder)
        visit_with_scripts(openwpm_profile("ubuntu", "regular"),
                           ["screen.availTop;"], extension=extension)
        storage.end_visit()
        assert any(r["symbol"] == "Screen.availTop"
                   for r in storage.javascript_records())
