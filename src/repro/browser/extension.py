"""WebExtension model: contexts, isolation, and privileged capabilities.

OpenWPM's instruments live in a browser extension. Extensions see the
same DOM as the page but run in an isolated *content context* with two
privileged capabilities the paper's hardening relies on:

* ``inject_page_script`` — the vanilla route: add a ``<script>`` element
  to the page (subject to the page's CSP, Sec. 5.1.2) whose code runs
  in the *page* context;
* ``export_function`` — the hardened route (Firefox's ``exportFunction``):
  install a privileged function directly into the page world without
  touching the DOM; its ``toString`` shows ``[native code]`` and it can
  capture a private channel to the background context (Sec. 6.2.1).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.dom.node import ScriptElement
from repro.jsobject.descriptors import PropertyDescriptor
from repro.jsobject.functions import NativeFunction
from repro.jsobject.objects import JSObject


class ExtensionHost:
    """Interface the browser calls into; instruments subclass this.

    ``frame_policy`` decides when newly created frames/popups get
    instrumented: ``"deferred"`` (vanilla — a task on the event loop,
    leaving the same-tick window of Listing 3 open) or ``"immediate"``
    (hardened frame protection, Sec. 6.2.2).
    """

    name = "extension"
    frame_policy = "deferred"

    def on_visit_start(self, browser: Any, url: Any) -> None:
        """A new top-level visit is beginning."""

    def on_window_created(self, window: Any) -> None:
        """The top-level window exists; scripts have not yet run."""

    def on_frame_created(self, window: Any, parent: Any) -> None:
        """A subframe or popup window was created."""

    def on_request(self, request: Any, response: Any) -> None:
        """One HTTP exchange completed."""

    def on_cookie_change(self, cookie: Any, change: str) -> None:
        """The cookie jar changed."""

    def on_visit_end(self, browser: Any) -> None:
        """The visit is over; flush instrument state."""

    def clear_records(self) -> None:
        """Drop the in-memory instrument records (a new site starts)."""


class ExtensionContext:
    """Per-window content-script capabilities handed to instruments."""

    def __init__(self, window: Any,
                 background: Optional[Callable[[str, Any], None]] = None
                 ) -> None:
        self.window = window
        #: background message sink: fn(channel, payload)
        self._background = background or (lambda channel, payload: None)
        #: Exchanges that failed CSP, for auditing.
        self.blocked_injections: List[str] = []

    # ------------------------------------------------------------------
    # Vanilla route: DOM script injection (CSP applies)
    # ------------------------------------------------------------------
    def inject_page_script(self, source: str, script_url: str,
                           remove_after: bool = True) -> bool:
        """Inject *source* into the page via a ``<script>`` element.

        Returns False (and triggers a CSP violation report) when the
        page's ``script-src`` directive forbids inline scripts — exactly
        the failure mode the paper demonstrates against vanilla OpenWPM.
        """
        document = self.window.document
        if not document.csp.allows_inline_script():
            self.window.report_csp_violation("script-src",
                                             "extension-inline")
            self.blocked_injections.append(script_url)
            return False
        element: ScriptElement = document.create_element("script")
        element.text_content = source
        element.executed = True  # the extension runs it itself, below
        document.head.append_child(element)
        self.window.run_script(source, script_url=script_url,
                               raise_errors=False)
        if remove_after:
            element.remove()
        return True

    def run_page_script_with_scope(self, source: str, script_url: str):
        """Run injected code and keep its top scope (for wrapper closures).

        Still CSP-gated like :meth:`inject_page_script` since the code
        enters the page world through a DOM script element.
        """
        document = self.window.document
        if not document.csp.allows_inline_script():
            self.window.report_csp_violation("script-src",
                                             "extension-inline")
            self.blocked_injections.append(script_url)
            return None
        element: ScriptElement = document.create_element("script")
        element.text_content = source
        element.executed = True
        document.head.append_child(element)
        scope = self.window.run_script_with_scope(source, script_url)
        element.remove()
        return scope

    # ------------------------------------------------------------------
    # Hardened route: exportFunction (no DOM, no CSP interaction)
    # ------------------------------------------------------------------
    def export_function(self, fn: Callable[[Any, Any, List[Any]], Any],
                        name: str,
                        masquerade_name: Optional[str] = None
                        ) -> NativeFunction:
        """Export a privileged function into the page world.

        The resulting function is indistinguishable from a native
        builtin: its ``toString`` yields ``function <name>() { [native
        code] }`` and no interpreter stack frame is recorded for it.
        """
        return NativeFunction(
            fn, name=name,
            proto=self.window.realm.function_prototype,
            masquerade_name=masquerade_name
            if masquerade_name is not None else name)

    def define_exported_accessor(self, target: JSObject, name: str,
                                 getter: Callable, setter: Optional[Callable]
                                 = None, enumerable: bool = True) -> None:
        """Replace a property with exported (native-looking) accessors."""
        get_fn = self.export_function(getter, name, masquerade_name=name)
        set_fn = self.export_function(setter, name, masquerade_name=name) \
            if setter is not None else None
        target.properties[name] = PropertyDescriptor.accessor(
            get=get_fn, set=set_fn, enumerable=enumerable)

    # ------------------------------------------------------------------
    # Background messaging (browser.runtime.sendMessage equivalent)
    # ------------------------------------------------------------------
    def send_to_background(self, channel: str, payload: Any) -> None:
        """Deliver a message on the extension's private channel.

        Page scripts cannot reach this function unless the instrument
        leaks it — the hardened instrument captures it in the closure of
        exported wrappers only.
        """
        self._background(channel, payload)
