"""Tests for the Sec. 5 attacks against vanilla and hardened clients."""

import pytest

from repro.core.attacks import (
    run_block_recording_attack,
    run_csp_blocking_attack,
    run_fake_injection_attack,
    run_iframe_bypass_attack,
    run_silent_delivery_attack,
    run_sql_injection_probe,
)


class TestBlockRecording:
    """Listing 2, steps I+II (RQ5)."""

    def test_succeeds_against_vanilla(self):
        outcome = run_block_recording_attack(stealth=False)
        assert outcome.succeeded

    def test_page_keeps_working_while_blocked(self):
        outcome = run_block_recording_attack(stealth=False)
        # Records from before the block (the ID-grab access) may exist;
        # the probe activity afterwards is gone.
        assert "navigator.platform" not in outcome.recorded_symbols

    def test_fails_against_hardened(self):
        outcome = run_block_recording_attack(stealth=True)
        assert not outcome.succeeded


class TestFakeInjection:
    """Listing 2, step III (RQ6)."""

    def test_succeeds_against_vanilla(self):
        outcome = run_fake_injection_attack(stealth=False)
        assert outcome.succeeded
        assert outcome.forged_records

    def test_attacker_controls_symbol_and_script_url(self):
        outcome = run_fake_injection_attack(
            stealth=False, fake_symbol="window.TotallyReal",
            fake_script_url="https://innocent.example/clean.js")
        record = outcome.forged_records[0]
        assert record["symbol"] == "window.TotallyReal"
        assert record["script_url"] == "https://innocent.example/clean.js"

    def test_backend_pins_visited_site(self):
        """RQ6 limit: forging is confined to the current visit."""
        from repro.openwpm.storage import StorageController
        from repro.core.attacks.dispatcher import (
            FAKE_INJECTION_ATTACK,
            _make_extension,
        )
        from repro.core.lab import visit_with_scripts
        from repro.browser.profiles import openwpm_profile

        storage = StorageController()
        extension = _make_extension(stealth=False,
                                    storage=storage.recorder)
        storage.begin_visit("https://lab.test/")
        source = (FAKE_INJECTION_ATTACK
                  .replace("__FAKE_SYMBOL__", "forged.symbol")
                  .replace("__FAKE_VALUE__", "v")
                  .replace("__FAKE_ARGS__", "a")
                  .replace("__FAKE_SCRIPT_URL__", "https://x.test/s.js"))
        visit_with_scripts(openwpm_profile("ubuntu", "regular"), [source],
                           extension=extension)
        storage.end_visit()
        rows = [r for r in storage.javascript_records()
                if r["symbol"] == "forged.symbol"]
        assert rows and rows[0]["top_level_url"] == "https://lab.test/"

    def test_fails_against_hardened(self):
        outcome = run_fake_injection_attack(stealth=True)
        assert not outcome.succeeded


class TestCSPBlocking:
    """Sec. 5.1.2 (RQ5)."""

    def test_csp_disables_vanilla_instrumentation(self):
        outcome = run_csp_blocking_attack(stealth=False)
        assert outcome.succeeded
        assert outcome.csp_reports >= 1
        assert outcome.inline_scripts_blocked

    def test_hardened_unaffected_no_reports(self):
        outcome = run_csp_blocking_attack(stealth=True)
        assert not outcome.succeeded
        assert outcome.csp_reports == 0

    def test_permissive_csp_does_not_block(self):
        from repro.core.attacks.csp_attack import PERMISSIVE_CSP

        outcome = run_csp_blocking_attack(stealth=False,
                                          csp_header=PERMISSIVE_CSP)
        assert not outcome.succeeded


class TestIframeBypass:
    """Listing 3 (RQ8)."""

    def test_immediate_access_unrecorded_by_vanilla(self):
        outcome = run_iframe_bypass_attack(stealth=False)
        assert outcome.succeeded
        assert not outcome.immediate_recorded

    def test_delayed_access_is_recorded_by_vanilla(self):
        """Only same-tick execution exploits the bug (Sec. 5.4.1)."""
        outcome = run_iframe_bypass_attack(stealth=False)
        assert outcome.delayed_recorded

    def test_hardened_frame_protection_closes_gap(self):
        outcome = run_iframe_bypass_attack(stealth=True)
        assert not outcome.succeeded
        assert outcome.immediate_recorded
        assert outcome.delayed_recorded


class TestSilentDelivery:
    """Listing 4 / Appx. D (RQ8)."""

    def test_bypasses_javascript_only_archiving(self):
        outcome = run_silent_delivery_attack(save_content="script")
        assert outcome.succeeded
        assert outcome.payload_executed
        assert not outcome.payload_archived

    def test_save_all_defeats_it(self):
        """Sec. 6.2.3: do not filter under active adversaries."""
        outcome = run_silent_delivery_attack(save_content="all")
        assert not outcome.succeeded
        assert outcome.payload_archived

    def test_payload_execution_is_still_js_recorded(self):
        outcome = run_silent_delivery_attack(save_content="script")
        # The eval'd code's API calls do appear in the JS record: the
        # bypass concerns the HTTP archive, not call recording.
        assert any("useragent" in s.lower()
                   for s in outcome.recorded_symbols)


class TestSQLInjection:
    """RQ7: the storage backend sanitises its inputs."""

    def test_database_survives_injection_attempts(self):
        outcome = run_sql_injection_probe()
        assert not outcome.succeeded
        assert outcome.tables_intact
        assert outcome.rows_after >= outcome.rows_before

    def test_payloads_stored_as_inert_text(self):
        """The probe's exact outcome: two seeded rows survive and each
        of the four payloads lands once, verbatim."""
        outcome = run_sql_injection_probe()
        assert (outcome.succeeded, outcome.tables_intact,
                outcome.payloads_stored_verbatim, outcome.rows_before,
                outcome.rows_after) == (False, True, 4, 2, 6)
