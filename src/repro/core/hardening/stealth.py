"""The hardened JavaScript instrument (WPM_hide).

Differences from the vanilla instrument, keyed to the paper:

* **No DOM injection** — wrappers are installed directly from the
  content context via ``exportFunction`` (Sec. 6.1.2, 6.2.1): CSP cannot
  block installation and no ``getInstrumentJS`` residue exists.
* **Native-looking wrappers** — every wrapper is an exported function
  whose ``toString`` is the original native-code string (Sec. 6.1.1).
* **Private messaging** — records go to the background context through a
  channel captured in the wrapper's closure; there is no page-visible
  event dispatcher to hijack (defeats Listing 2, Sec. 6.2.1).
* **Per-prototype wrapping** — each prototype's own properties are
  wrapped in place on that prototype; nothing is copied down the chain
  (Sec. 6.1.4). The documented limitation applies: wrapping a shared
  prototype (EventTarget) instruments every interface inheriting it.
* **Clean stack traces** — exported wrappers add no interpreter frames,
  and errors crossing a wrapper are additionally scrubbed (Sec. 6.1.3).
* **Frame protection** — ``frame_policy = "immediate"``: new frames and
  popups are instrumented synchronously at creation, closing the
  Listing-3 window (Sec. 6.2.2).
* **webdriver hidden** — ``navigator.webdriver`` reads false while the
  access itself is still recorded (Sec. 6.1.5).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, List, Optional, Tuple

from repro.core.hardening.errors import sanitize_error_stack
from repro.jsobject.descriptors import (
    DescriptorTemplate,
    LazyDescriptor,
    PropertyDescriptor,
)
from repro.jsobject.errors import JSError
from repro.jsobject.objects import JSObject
from repro.jsobject.values import UNDEFINED
from repro.openwpm.instruments.js_instrument import (
    ACCESSOR,
    DEFAULT_TARGETS,
    METHOD,
    VALUE,
    JSCallRecord,
    TargetSpec,
    target_chain,
    target_object_name,
    wrappable,
)


def _interface_name(proto: JSObject, fallback: str) -> str:
    name = proto.class_name
    if name.endswith("Prototype"):
        return name[: -len("Prototype")]
    return fallback


class _StealthWrappers(DescriptorTemplate):
    """One window's exported wrappers of one kind, built on first touch.

    A placeholder's args are ``(symbol, name, source)`` (see
    :func:`~repro.openwpm.instruments.js_instrument.wrappable`). A
    method keeps its data shape, with an exported function as value;
    accessors and plain values become exported getter/setter pairs.
    """

    __slots__ = ("instrument", "window", "context", "kind", "accessor")
    marks = MappingProxyType({"wpmhide_wrapped": True})

    def __init__(self, instrument: "StealthJSInstrument", window: Any,
                 context: Any, kind: str) -> None:
        self.instrument = instrument
        self.window = window
        self.context = context
        self.kind = kind
        self.accessor = kind != METHOD

    def build(self, args: Tuple[str, str, PropertyDescriptor]
              ) -> Tuple[Any, Any, Any]:
        symbol, name, source = args
        instrument, window = self.instrument, self.window
        export = self.context.export_function

        def log(operation: str, value: str = "", arguments: str = "") -> None:
            instrument._record(window, symbol, operation, value, arguments)

        def render(value: Any) -> str:
            return instrument._render(window, value)

        if self.kind == METHOD:
            original = source.value

            def stealth_call(interp, this, args):
                log("call", arguments=",".join(render(a) for a in args))
                try:
                    return original.call(interp, this, args)
                except JSError as exc:
                    # Scrub any instrumentation trace before the page
                    # can observe the error (Sec. 6.1.3).
                    raise JSError(sanitize_error_stack(exc.value)) from exc

            label = original.function_name or name
            return (export(stealth_call, label, masquerade_name=label),
                    None, None)

        if self.kind == ACCESSOR:
            original_get, original_set = source.get, source.set

            def stealth_get(interp, this, args):
                result = original_get.call(interp, this, []) \
                    if original_get is not None else UNDEFINED
                log("get", value=render(result))
                return result

            def stealth_set(interp, this, args):
                log("set", value=render(args[0] if args else UNDEFINED))
                if original_set is not None:
                    return original_set.call(interp, this, args)
                return UNDEFINED
        else:
            original_value = source.value

            def stealth_get(interp, this, args):
                log("get", value=render(original_value))
                return original_value

            def stealth_set(interp, this, args):
                log("set", value=render(args[0] if args else UNDEFINED))
                return UNDEFINED

        return (UNDEFINED,
                export(stealth_get, name, masquerade_name=name),
                export(stealth_set, name, masquerade_name=name))


class StealthJSInstrument:
    """Drop-in replacement for :class:`JSInstrument` with stealth."""

    name = "stealth_js_instrument"
    frame_policy = "immediate"

    def __init__(self, storage: Any = None,
                 targets: Optional[List[TargetSpec]] = None,
                 hide_webdriver: bool = True) -> None:
        self.storage = storage
        self.targets = targets if targets is not None else DEFAULT_TARGETS
        self.hide_webdriver = hide_webdriver
        self.records: List[JSCallRecord] = []
        self.install_counts: Dict[int, int] = {}
        #: Kept for interface parity with JSInstrument; stays empty —
        #: installation cannot be blocked by page policy.
        self.failed_windows: List[Any] = []
        self.frames_instrumented = 0

    # ==================================================================
    def instrument_window(self, window: Any, context: Any) -> bool:
        if window.parent is not None or window.is_popup:
            self.frames_instrumented += 1
        templates = {kind: _StealthWrappers(self, window, context, kind)
                     for kind in (ACCESSOR, METHOD, VALUE)}
        installed = 0
        for target in self.targets:
            obj = self._resolve_path(window, target.path)
            if isinstance(obj, JSObject):
                installed += self._instrument_object(window, templates,
                                                     obj, target)
        if self.hide_webdriver:
            self._hide_webdriver(window, context)
        self.install_counts[id(window)] = installed
        return True

    def _resolve_path(self, window: Any, path: str) -> Any:
        obj: Any = window.window_object
        for part in path.split("."):
            if not isinstance(obj, JSObject):
                return UNDEFINED
            obj = obj.get(part, window.interp)
        return obj

    # ------------------------------------------------------------------
    def _instrument_object(self, window: Any,
                           templates: Dict[str, _StealthWrappers],
                           obj: JSObject, target: TargetSpec) -> int:
        fallback_name = target_object_name(target)
        installed = 0
        for proto in target_chain(window, obj, target):
            interface = _interface_name(proto, fallback_name)
            # Per-prototype: the wrapper replaces the property on the
            # SAME prototype it was found on — no pollution.
            for name, kind, source in wrappable(
                    window, proto, target, "wpmhide_wrapped",
                    replaced=True):
                proto.properties[name] = LazyDescriptor(
                    templates[kind], (f"{interface}.{name}", name, source),
                    writable=source.writable, enumerable=source.enumerable,
                    configurable=source.configurable)
                installed += 1
        return installed

    # ------------------------------------------------------------------
    def _hide_webdriver(self, window: Any, context: Any) -> None:
        """navigator.webdriver reads false; the access is still logged."""
        proto = window.navigator_proto
        if proto is None:
            return

        def webdriver_get(interp, this, args):
            self._record(window, "Navigator.webdriver", "get", "false", "")
            return False

        desc = PropertyDescriptor.accessor(
            get=context.export_function(webdriver_get, "webdriver",
                                        masquerade_name="webdriver"),
            enumerable=True, configurable=True)
        desc.mark("wpmhide_wrapped", True)
        proto.properties["webdriver"] = desc

    # ------------------------------------------------------------------
    def _render(self, window: Any, value: Any) -> str:
        try:
            return window.interp.to_string(value)[:256]
        except (JSError, TypeError):
            return "<unrenderable>"

    def _record(self, window: Any, symbol: str, operation: str,
                value: str, arguments: str) -> None:
        script_url = ""
        for frame in reversed(window.interp.call_stack):
            script_url = frame.script_url
            break
        record = JSCallRecord(
            symbol=symbol, operation=operation, value=value,
            arguments=arguments, call_stack="", script_url=script_url,
            document_url=str(window.url))
        self.records.append(record)
        if self.storage is not None:
            self.storage.record_javascript(
                document_url=record.document_url,
                script_url=record.script_url, symbol=symbol,
                operation=operation, value=value, arguments=arguments,
                call_stack="")

    # ------------------------------------------------------------------
    def symbols_accessed(self) -> List[str]:
        return [record.symbol for record in self.records]

    def clear_records(self) -> None:
        self.records.clear()
