"""The OpenWPM browser extension: instrument composition + lifecycle."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.browser.extension import ExtensionContext, ExtensionHost
from repro.jsobject.objects import JSObject
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, coalesce
from repro.openwpm.config import BrowserParams
from repro.openwpm.instruments.cookie_instrument import CookieInstrument
from repro.openwpm.instruments.http_instrument import HTTPInstrument
from repro.openwpm.instruments.js_instrument import JSInstrument

#: Symbol exercised by the end-of-visit recording-integrity probe. Any
#: wrapped API works; ``navigator.userAgent`` is instrumented by both the
#: vanilla and the hardened instrument.
INTEGRITY_PROBE_SYMBOL = "navigator.userAgent"


class OpenWPMExtension(ExtensionHost):
    """Bundles the HTTP, cookie, and JavaScript instruments.

    ``frame_policy`` is ``"deferred"`` for the vanilla JS instrument
    (new frames/popups are instrumented from an event-loop task — the
    Listing-3 window) and ``"immediate"`` when a hardened instrument
    announces itself via ``frame_policy = "immediate"``.

    When constructed with an enabled :class:`Telemetry`, the extension
    additionally runs an end-of-visit *recording-integrity probe*: it
    reads one instrumented API through the page-visible wrapper path and
    checks that a record actually arrives at the instrument's background
    end. The Sec. 5 event-dispatcher hijack silences that channel, so
    the probe turns the paper's headline attack into a red
    ``recording_integrity`` gauge instead of silent data loss.
    """

    name = "openwpm"

    def __init__(self, params: Optional[BrowserParams] = None,
                 storage: Any = None,
                 js_instrument: Any = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.params = params or BrowserParams()
        self.storage = storage
        self.telemetry = coalesce(telemetry)
        self.http_instrument: Optional[HTTPInstrument] = None
        self.cookie_instrument: Optional[CookieInstrument] = None
        self.js_instrument = js_instrument

        if self.params.http_instrument:
            self.http_instrument = HTTPInstrument(
                storage=storage, save_content=self.params.save_content,
                telemetry=self.telemetry)
        if self.params.cookie_instrument:
            self.cookie_instrument = CookieInstrument(
                storage=storage, telemetry=self.telemetry)
        if self.params.js_instrument and self.js_instrument is None:
            self.js_instrument = JSInstrument(storage=storage,
                                              telemetry=self.telemetry)
        elif self.js_instrument is not None:
            # Externally built instruments (stealth, custom factories)
            # join the same telemetry stream unless they brought their own.
            existing = getattr(self.js_instrument, "telemetry", None)
            if existing is None or not existing.enabled:
                self.js_instrument.telemetry = self.telemetry

        #: Windows instrumented during the current visit.
        self.instrumented_windows: List[Any] = []

    # ------------------------------------------------------------------
    @property
    def frame_policy(self) -> str:
        return getattr(self.js_instrument, "frame_policy", "deferred")

    # ------------------------------------------------------------------
    def on_visit_start(self, browser: Any, url: Any) -> None:
        self.instrumented_windows = []
        if self.js_instrument is not None:
            # A CSP-blocked window keeps its whole DOM/JS heap alive;
            # readers only check the list after the visit that filled it.
            self.js_instrument.failed_windows.clear()

    def on_window_created(self, window: Any) -> None:
        self._instrument(window)

    def on_frame_created(self, window: Any, parent: Any) -> None:
        self._instrument(window)

    def _instrument(self, window: Any) -> None:
        if self.js_instrument is None:
            return
        context = ExtensionContext(window)
        with self.telemetry.stage("instrument_window"):
            installed = self.js_instrument.instrument_window(window,
                                                             context)
        if installed:
            self.instrumented_windows.append(window)
        else:
            self.telemetry.metrics.counter("instrumentation_blocked").inc()

    def on_request(self, request: Any, response: Any) -> None:
        if self.http_instrument is not None:
            self.http_instrument.on_request(request, response)

    def on_cookie_change(self, cookie: Any, change: str) -> None:
        if self.cookie_instrument is not None:
            self.cookie_instrument.on_cookie_change(cookie, change)

    def on_visit_end(self, browser: Any) -> None:
        if self.telemetry.enabled:
            verdict = self.recording_integrity_probe()
            if verdict is not None:
                self.telemetry.metrics.gauge(
                    "recording_integrity").set(1.0 if verdict else 0.0)
                if not verdict:
                    self.telemetry.metrics.counter(
                        "integrity_probe_failures").inc()

    # ------------------------------------------------------------------
    # Recording integrity
    # ------------------------------------------------------------------
    def recording_integrity_probe(self) -> Optional[bool]:
        """Exercise the instrument's reporting channel end to end.

        Reads ``navigator.userAgent`` through the instrumented window —
        the access flows through the page-context wrapper and whatever
        ``document.dispatchEvent`` the page left behind — then checks a
        record arrived. Probe records are discarded afterwards and never
        reach storage, so crawl data is unaffected.

        Returns ``True``/``False``, or ``None`` when there is nothing to
        probe (no JS instrument, or no instrumented window this visit).
        """
        instrument = self.js_instrument
        if instrument is None or not self.instrumented_windows:
            return None
        records = getattr(instrument, "records", None)
        if records is None:
            return None
        window = self.instrumented_windows[0]
        before = len(records)
        # Probe records must pollute neither storage nor the metrics.
        saved_storage = getattr(instrument, "storage", None)
        saved_telemetry = getattr(instrument, "telemetry", None)
        instrument.storage = None
        if saved_telemetry is not None:
            instrument.telemetry = NULL_TELEMETRY
        try:
            navigator = window.window_object.get("navigator", window.interp)
            if not isinstance(navigator, JSObject):
                return None
            navigator.get("userAgent", window.interp)
        except Exception:
            pass
        finally:
            instrument.storage = saved_storage
            if saved_telemetry is not None:
                instrument.telemetry = saved_telemetry
        wanted = INTEGRITY_PROBE_SYMBOL.lower()
        arrived = any(
            record.symbol.lower() == wanted and record.operation == "get"
            for record in records[before:])
        del records[before:]
        return arrived

    # ------------------------------------------------------------------
    def clear_records(self) -> None:
        for instrument in (self.http_instrument, self.cookie_instrument,
                           self.js_instrument):
            if instrument is not None and hasattr(instrument,
                                                  "clear_records"):
                instrument.clear_records()
