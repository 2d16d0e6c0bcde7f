"""OpenWPM's JavaScript call instrument (vulnerable upstream design).

How the real instrument works — and what this module reproduces:

1. At ``document_start`` the extension's content script **injects a
   <script> element** into the page carrying the instrumentation code,
   then removes the element. The injection is subject to the page's CSP
   (attackable: Sec. 5.1.2) and leaves ``window.getInstrumentJS`` behind
   (fingerprintable: Sec. 3.1.4).
2. The injected code wraps the target APIs with **script-level wrapper
   functions**, so ``toString`` on a wrapped API returns the wrapper's
   source (Listing 1) and errors raised beneath a wrapper carry
   instrumentation stack frames.
3. Wrappers report through ``document.dispatchEvent`` with a
   **randomly-named CustomEvent**, looked up dynamically at call time —
   a page that replaces ``document.dispatchEvent`` can capture the random
   ID, then block or forge records (Listing 2, Sec. 5.1/5.2).
4. Wrapping walks each target's prototype chain but defines every
   wrapper **on the first prototype**, polluting it with the ancestors'
   properties (Fig. 2).
5. New frames are instrumented via a task queued on the event loop, so
   same-tick access to a fresh iframe's APIs goes unrecorded
   (Listing 3, Sec. 5.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import is_not
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.jsengine.builtins import js_to_python
from repro.jsengine.interpreter import Scope, ScriptFunction
from repro.jsengine.parser import parse
from repro.jsobject.descriptors import (
    DescriptorTemplate,
    LazyDescriptor,
    PropertyDescriptor,
)
from repro.jsobject.functions import NativeFunction, returns_undefined
from repro.jsobject.objects import JSObject
from repro.jsobject.values import UNDEFINED
from repro.obs.telemetry import Telemetry, coalesce

#: URL the injected instrumentation appears under in stack traces.
INSTRUMENT_SCRIPT_URL = "moz-extension://openwpm/content.js"

#: The code injected into the page context. ``__EVENT_ID__`` is replaced
#: with the per-page random channel name.
INSTRUMENT_PAGE_SCRIPT = """
function getOriginatingScriptContext(logCallStack) {
    var stack = "";
    try { throw new Error(""); } catch (err) { stack = err.stack; }
    return {
        callStack: logCallStack ? stack : "",
        scriptUrl: __originatingScriptUrl()
    };
}
function serializeArguments(args) {
    var parts = [];
    for (var i = 0; i < args.length; i++) { parts.push("" + args[i]); }
    return parts.join(",");
}
function logCall(symbol, args, callContext, logSettings) {
    document.dispatchEvent(new CustomEvent(eventChannelId, {detail: {
        symbol: symbol,
        operation: "call",
        value: "",
        arguments: serializeArguments(args),
        callStack: callContext.callStack,
        scriptUrl: callContext.scriptUrl
    }}));
}
function logValue(symbol, value, operation, callContext, logSettings) {
    document.dispatchEvent(new CustomEvent(eventChannelId, {detail: {
        symbol: symbol,
        operation: operation,
        value: "" + value,
        arguments: "",
        callStack: callContext.callStack,
        scriptUrl: callContext.scriptUrl
    }}));
}
var logSettings = {logCallStack: true};
window.getInstrumentJS = function () { return true; };
"""

#: Residue left by the oldest instrument generation (paper Sec. 3.2):
#: v0.10.0 exposed two window properties instead of getInstrumentJS.
LEGACY_PAGE_SCRIPT_SUFFIX = """
window.jsInstruments = function () { return true; };
window.instrumentFingerprintingApis = function () { return true; };
"""

# Wrapper templates. Their source text is what Function.prototype.toString
# reveals on instrumented APIs (Listing 1 in the paper).
CALL_WRAPPER_SOURCE = """function () {
    const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
    logCall(objectName + "." + methodName, arguments, callContext, logSettings);
    return func.apply(this, arguments);
}"""

GET_WRAPPER_SOURCE = """function () {
    const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
    logValue(objectName + "." + propertyName, originalGet.call(this), "get", callContext, logSettings);
    return originalGet.call(this);
}"""

SET_WRAPPER_SOURCE = """function (newValue) {
    const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
    logValue(objectName + "." + propertyName, newValue, "set", callContext, logSettings);
    return originalSet.call(this, newValue);
}"""

METHOD_GET_WRAPPER_SOURCE = """function () {
    return func;
}"""


def _parse_function_template(source: str):
    """Parse a function-expression template once; reuse the AST node."""
    program = parse("(" + source + ")")
    return program.body[0].expression


_CALL_NODE = _parse_function_template(CALL_WRAPPER_SOURCE)
_GET_NODE = _parse_function_template(GET_WRAPPER_SOURCE)
_SET_NODE = _parse_function_template(SET_WRAPPER_SOURCE)
_METHOD_GET_NODE = _parse_function_template(METHOD_GET_WRAPPER_SOURCE)


@dataclass(frozen=True)
class TargetSpec:
    """One object whose API the instrument wraps.

    ``path`` is resolved from the window (``navigator``,
    ``CanvasRenderingContext2D.prototype``, ...). ``is_prototype`` makes
    wrapping start at the resolved object itself instead of at its first
    prototype. ``methods_only`` skips data properties (used for WebGL,
    whose ~2k numeric constants are not instrumented upstream).
    """

    path: str
    is_prototype: bool = False
    methods_only: bool = False
    exclude: Tuple[str, ...] = ()


DEFAULT_TARGETS: List[TargetSpec] = [
    TargetSpec("navigator"),
    TargetSpec("screen"),
    TargetSpec("localStorage"),
    TargetSpec("performance"),
    TargetSpec("history"),
    TargetSpec("CanvasRenderingContext2D.prototype", is_prototype=True),
    TargetSpec("WebGLRenderingContext.prototype", is_prototype=True,
               methods_only=True),
    TargetSpec("OfflineAudioContext.prototype", is_prototype=True),
]


def target_chain(window: Any, obj: JSObject,
                 target: TargetSpec) -> List[JSObject]:
    """The prototype levels whose own properties *target* wraps.

    The chain stops below ``Object.prototype``/``Function.prototype``;
    a plain object with neither wraps its own properties in place.
    """
    realm = window.realm
    chain = [obj] if target.is_prototype else []
    walker = obj.proto
    while walker is not None and walker is not realm.object_prototype \
            and walker is not realm.function_prototype:
        chain.append(walker)
        walker = walker.proto
    return chain or [obj]


def target_object_name(target: TargetSpec) -> str:
    """``navigator`` for ``navigator``; ``X`` for ``X.prototype``."""
    if target.is_prototype:
        return target.path.rsplit(".", 2)[0]
    return target.path.split(".")[0]


#: Wrapper kinds: an accessor's, a method's, a plain data value's.
ACCESSOR, METHOD, VALUE = "accessor", "method", "value"


def wrappable(window: Any, proto: JSObject, target: TargetSpec, mark: str,
              replaced: bool) -> List[Tuple[str, str, PropertyDescriptor]]:
    """``(name, kind, source)`` for each of *proto*'s properties that
    *target* wraps, in property order.

    Skips excluded names, ``constructor`` and descriptors already
    carrying the instrument's *mark*; a ``methods_only`` target also
    skips data properties that do not hold a function. Placeholders
    answer without being built. The profile's shared WebGL constants
    are dropped by identity before any of that, without a Python-level
    step per property: there are ~2k of them on every window.

    ``source`` is the descriptor the wrapper wraps. A *replaced* one
    leaves the page's reach, so the wrapper reads it when built; one
    that stays on an ancestor prototype (the Fig. 2 copies) is
    snapshotted now, since the page could still write it in place.
    """
    properties = proto.properties
    items: Iterable[Tuple[str, PropertyDescriptor]] = properties.items()
    if target.methods_only and window.shared_descriptors:
        unshared = map(is_not, map(window.shared_descriptors.get,
                                   properties), properties.values())
        items = compress(items, unshared)
    found = []
    for name, desc in items:
        if name in target.exclude or name == "constructor" \
                or desc.meta.get(mark):
            continue
        if desc.is_accessor:
            kind = ACCESSOR
        elif desc.holds_function():
            kind = METHOD
        elif target.methods_only:
            continue
        else:
            kind = VALUE
        found.append((name, kind, desc if replaced else desc.copy()))
    return found


class _Wrappers(DescriptorTemplate):
    """One window's script wrappers of one kind, built on first touch.

    A placeholder's args are ``(object_name, name, source)`` (see
    :func:`wrappable`). Wrappers close over the injected script's
    scope and report as :data:`INSTRUMENT_SCRIPT_URL` in stack frames.
    """

    __slots__ = ("interp", "scope", "function_prototype", "kind")
    accessor = True
    marks = MappingProxyType({"openwpm_wrapped": True})

    def __init__(self, window: Any, scope: Scope, kind: str) -> None:
        self.interp = window.interp
        self.scope = scope
        self.function_prototype = window.realm.function_prototype
        self.kind = kind

    def _native(self, fn: Any, name: str) -> NativeFunction:
        return NativeFunction(fn, name=name, proto=self.function_prototype)

    def _wrapper(self, node: Any, variables: Dict[str, Any]
                 ) -> ScriptFunction:
        # A function scope of its own keeps each wrapper's closure
        # variables private instead of hoisting them into the shared
        # injected scope.
        closure = Scope(parent=self.scope, function_scope=True)
        closure.variables.update(variables)
        wrapper = ScriptFunction(node, closure, self.interp,
                                 lightweight=True)
        wrapper.script_url = INSTRUMENT_SCRIPT_URL
        return wrapper

    def build(self, args: Tuple[str, str, PropertyDescriptor]
              ) -> Tuple[Any, Any, Any]:
        object_name, name, source = args
        if self.kind == METHOD:
            call_wrapper = self._wrapper(_CALL_NODE, {
                "objectName": object_name, "methodName": name,
                "func": source.value})
            # Access to the wrapped function itself goes through a getter;
            # reassignment attempts are recorded via the set wrapper (the
            # "hooks into setters and getters" protection, Sec. 5.1.1).
            getter = self._wrapper(_METHOD_GET_NODE, {"func": call_wrapper})
            original_set = self._native(returns_undefined, "originalSet")
        else:
            if self.kind == ACCESSOR:
                get_fn, set_fn = source.get, source.set
                original_get = self._native(
                    lambda i, t, a: get_fn.call(i, t, [])
                    if get_fn is not None else UNDEFINED, "originalGet")
                original_set = self._native(
                    lambda i, t, a: set_fn.call(i, t, a)
                    if set_fn is not None else UNDEFINED, "originalSet")
            else:
                value = source.value
                original_get = self._native(lambda i, t, a: value,
                                            "originalGet")
                original_set = self._native(returns_undefined,
                                            "originalSet")
            getter = self._wrapper(_GET_NODE, {
                "objectName": object_name, "propertyName": name,
                "originalGet": original_get})
        setter = self._wrapper(_SET_NODE, {
            "objectName": object_name, "propertyName": name,
            "originalSet": original_set})
        return UNDEFINED, getter, setter


@dataclass
class JSCallRecord:
    """One record as received by the instrument's background end."""

    symbol: str
    operation: str
    value: str
    arguments: str
    call_stack: str
    script_url: str
    document_url: str


class JSInstrument:
    """The JavaScript call instrument (content + background halves)."""

    name = "js_instrument"

    def __init__(self, storage: Any = None,
                 targets: Optional[List[TargetSpec]] = None,
                 legacy_v010: bool = False,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.storage = storage
        self.targets = targets if targets is not None else DEFAULT_TARGETS
        self.legacy_v010 = legacy_v010
        self.telemetry = coalesce(telemetry)
        #: Windows where instrumentation could not be installed (CSP).
        self.failed_windows: List[Any] = []
        #: In-memory record stream (also forwarded to storage, if any).
        self.records: List[JSCallRecord] = []
        #: Per-window wrapped-property counts, for surface accounting.
        self.install_counts: Dict[int, int] = {}

    # ==================================================================
    # Installation
    # ==================================================================
    def instrument_window(self, window: Any, context: Any) -> bool:
        """Inject and wrap one window. Returns False when CSP blocks it."""
        event_id = "owpm-" + "".join(
            window.browser.rng.choice("0123456789abcdef") for _ in range(16))
        # The random channel name enters the page through the injected
        # script's scope rather than its text, so the (constant) source
        # stays parse-cacheable. Page-visible behaviour is identical:
        # wrappers still dispatch CustomEvents under the random name.
        source = INSTRUMENT_PAGE_SCRIPT
        if self.legacy_v010:
            source = source.replace(
                "window.getInstrumentJS = function () { return true; };",
                LEGACY_PAGE_SCRIPT_SUFFIX.strip())
        scope = context.run_page_script_with_scope(source,
                                                   INSTRUMENT_SCRIPT_URL)
        if scope is None:
            self.failed_windows.append(window)
            return False
        scope.declare("eventChannelId", event_id)

        # Host helper available to the injected code (hidden in its scope,
        # like the real extension's closures).
        scope.declare("__originatingScriptUrl", NativeFunction(
            lambda interp, this, args: self._originating_script_url(window),
            name="__originatingScriptUrl",
            proto=window.realm.function_prototype))

        # The content script listens for the (randomly named) events the
        # page-context wrappers dispatch.
        window.document.add_listener(
            event_id, lambda event, interp: self._on_record(window, event,
                                                            interp))

        templates = {kind: _Wrappers(window, scope, kind)
                     for kind in (ACCESSOR, METHOD, VALUE)}
        installed = 0
        for target in self.targets:
            obj = self._resolve_path(window, target.path)
            if isinstance(obj, JSObject):
                installed += self._instrument_object(
                    window, templates, obj, target)
        self.install_counts[id(window)] = installed
        return True

    def _resolve_path(self, window: Any, path: str) -> Any:
        obj: Any = window.window_object
        for part in path.split("."):
            if not isinstance(obj, JSObject):
                return UNDEFINED
            obj = obj.get(part, window.interp)
        return obj

    def _originating_script_url(self, window: Any) -> str:
        """First stack frame outside the instrumentation itself."""
        for frame in reversed(window.interp.call_stack):
            if frame.script_url != INSTRUMENT_SCRIPT_URL:
                return frame.script_url
        return ""

    # ------------------------------------------------------------------
    def _instrument_object(self, window: Any,
                           templates: Dict[str, _Wrappers],
                           obj: JSObject, target: TargetSpec) -> int:
        """Wrap one target, reproducing the pollution bug.

        The wrappers for *every* prototype level are defined onto the
        chain's first prototype (Fig. 2): inherited API surfaces show up
        as own properties of the first prototype afterwards. Each
        wrapper is a placeholder, built on first touch.
        """
        chain = target_chain(window, obj, target)
        first = chain[0]
        object_name = target_object_name(target)
        installed = 0
        for proto in chain:
            for name, kind, source in wrappable(
                    window, proto, target, "openwpm_wrapped",
                    replaced=proto is first):
                first.properties[name] = LazyDescriptor(
                    templates[kind], (object_name, name, source),
                    enumerable=source.enumerable)
                installed += 1
        return installed

    # ==================================================================
    # Background end: receiving records
    # ==================================================================
    def _on_record(self, window: Any, event: Any, interp: Any) -> None:
        detail = event.detail
        data: Dict[str, Any] = {}
        if isinstance(detail, JSObject):
            try:
                data = js_to_python(detail, interp) or {}
            except TypeError:
                data = {}
        record = JSCallRecord(
            symbol=str(data.get("symbol", "")),
            operation=str(data.get("operation", "")),
            value=str(data.get("value", "")),
            arguments=str(data.get("arguments", "")),
            call_stack=str(data.get("callStack", "")),
            script_url=str(data.get("scriptUrl", "")),
            document_url=str(window.url),
        )
        self.records.append(record)
        self.telemetry.metrics.counter("records_written",
                                       instrument="js").inc()
        if self.storage is not None:
            self.storage.record_javascript(
                document_url=record.document_url,
                script_url=record.script_url,
                symbol=record.symbol,
                operation=record.operation,
                value=record.value,
                arguments=record.arguments,
                call_stack=record.call_stack)

    # ------------------------------------------------------------------
    def symbols_accessed(self) -> List[str]:
        return [record.symbol for record in self.records]

    def clear_records(self) -> None:
        self.records.clear()
