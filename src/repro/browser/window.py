"""Browser windows: one JS world per frame.

A :class:`BrowserWindow` assembles, for one frame, the realm (globals +
builtins), the DOM prototypes and document, and the fingerprint-bearing
host objects (``navigator``, ``screen``, WebGL/2D canvas contexts,
``document.fonts``, timers, ``fetch``...). All of the paper's probing —
template traversal, probe lists, detector scripts — runs against these
objects through the interpreter.
"""

from __future__ import annotations

import base64
import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.browser.profiles import BrowserProfile
from repro.dom.csp import ContentSecurityPolicy, CSPViolation
from repro.dom.document import Document
from repro.dom.node import Element, IFrameElement, ScriptElement
from repro.dom.prototypes import DOMPrototypes
from repro.jsengine.builtins import Realm
from repro.jsengine.interpreter import (
    ExecutionBudgetExceeded,
    Interpreter,
    Scope,
)
from repro.jsobject.descriptors import (
    DescriptorTemplate,
    LazyDescriptor,
    PropertyDescriptor,
)
from repro.jsobject.errors import JSError
from repro.jsobject.functions import (
    JSFunction,
    NativeFunction,
    returns_undefined,
)
from repro.jsobject.objects import JSObject
from repro.jsobject.values import NULL, UNDEFINED
from repro.net.http import HttpResponse, ResourceType
from repro.net.page import PageSpec
from repro.net.url import URL


class ScriptExecutionError:
    """A script error captured during a page visit."""

    def __init__(self, script_url: str, message: str) -> None:
        self.script_url = script_url
        self.message = message

    def __repr__(self) -> str:
        return f"<ScriptExecutionError {self.script_url}: {self.message}>"


class _NoopMethods(DescriptorTemplate):
    """Host methods that do nothing: the wrapped API surface (canvas,
    WebGL, audio, performance, history). A placeholder's args are the
    method name."""

    __slots__ = ("function_prototype",)

    def __init__(self, function_prototype: JSObject) -> None:
        self.function_prototype = function_prototype

    def build(self, name: str) -> Tuple[Any, Any, Any]:
        return NativeFunction(returns_undefined, name=name,
                              proto=self.function_prototype), None, None


class _ValueGetters(DescriptorTemplate):
    """Getter-only accessors returning a fixed value (``navigator``,
    ``screen``, window geometry). A placeholder's args are
    ``(name, value)``."""

    __slots__ = ("function_prototype",)
    accessor = True

    def __init__(self, function_prototype: JSObject) -> None:
        self.function_prototype = function_prototype

    def build(self, args: Tuple[str, Any]) -> Tuple[Any, Any, Any]:
        name, value = args
        getter = NativeFunction(lambda i, t, a: value, name=f"get {name}",
                                proto=self.function_prototype,
                                masquerade_name=name)
        return UNDEFINED, getter, None


class BrowserWindow:
    """One frame: realm + document + fingerprint objects + host hooks."""

    def __init__(self, browser: Any, url: URL, page: Optional[PageSpec],
                 parent: Optional["BrowserWindow"] = None,
                 is_popup: bool = False) -> None:
        self.browser = browser
        self.profile: BrowserProfile = browser.profile
        self.url = url
        self.page = page
        self.parent = parent
        self.is_popup = is_popup
        self.child_frames: List[BrowserWindow] = []
        #: window index within the browser session (affects position).
        self.window_index = browser.next_window_index()

        self.realm = Realm(rng=browser.rng)
        self.interp = Interpreter(self.realm)
        self.dom = DOMPrototypes(self.realm)
        csp = ContentSecurityPolicy.parse(page.csp_header) \
            if page is not None and page.csp_header \
            else ContentSecurityPolicy.none()
        self.document = Document(
            url, csp=csp, proto=self.dom.document,
            element_proto_for=self.dom.proto_for_tag)
        self.document.window_host = self

        self.window_object = self.realm.global_object
        self.navigator_proto: Optional[JSObject] = None
        self.screen_proto: Optional[JSObject] = None
        self.webgl_context: Optional[JSObject] = None
        self.context_2d: Optional[JSObject] = None
        #: Descriptors this window shares with every window of its
        #: profile (the WebGL parameters); instruments leave them as
        #: they are.
        self.shared_descriptors: Dict[str, PropertyDescriptor] = {}
        function_prototype = self.realm.function_prototype
        self._noop_methods = _NoopMethods(function_prototype)
        self._value_getters = _ValueGetters(function_prototype)

        self._build_window_graph()

    # ==================================================================
    # Window graph construction
    # ==================================================================
    def _build_window_graph(self) -> None:
        window = self.window_object
        profile = self.profile

        window.put("window", window, enumerable=False)
        window.put("self", window, enumerable=False)
        window.put("globalThis", window, enumerable=False)
        window.put("document", self.document, enumerable=False)
        window.put("CustomEvent", self.dom.make_event_constructor(),
                   enumerable=False)
        window.put("Event", self.dom.make_event_constructor(),
                   enumerable=False)

        self._install_navigator()
        self._install_screen()
        self._install_geometry()
        self._install_timers()
        self._install_network_api()
        self._install_misc_api()
        self._install_frames_accessors()

    # ------------------------------------------------------------------
    def _accessor(self, target: JSObject, name: str,
                  getter: Callable[[Any, Any, List[Any]], Any],
                  setter: Optional[Callable] = None,
                  enumerable: bool = True) -> None:
        get_fn = NativeFunction(getter, name=f"get {name}",
                                proto=self.realm.function_prototype,
                                masquerade_name=name)
        set_fn = None
        if setter is not None:
            set_fn = NativeFunction(setter, name=f"set {name}",
                                    proto=self.realm.function_prototype,
                                    masquerade_name=name)
        target.define_property(name, PropertyDescriptor.accessor(
            get=get_fn, set=set_fn, enumerable=enumerable))

    def _value_accessor(self, target: JSObject, name: str, value: Any,
                        enumerable: bool = True) -> None:
        target.define_property(name, LazyDescriptor(
            self._value_getters, (name, value), enumerable=enumerable))

    # ------------------------------------------------------------------
    def _install_navigator(self) -> None:
        proto = JSObject(proto=self.realm.object_prototype,
                         class_name="NavigatorPrototype")
        self.navigator_proto = proto
        navigator = JSObject(proto=proto, class_name="Navigator")

        for name, value in self.profile.navigator.items():
            if name == "languages":
                languages = self.realm.new_array(list(value))
                for index, extra in enumerate(self.profile.languages_extra):
                    languages.put(extra, f"pollution-{index}")
                self._value_accessor(proto, name, languages)
            else:
                js_value = float(value) if isinstance(value, (int,)) \
                    and not isinstance(value, bool) else value
                self._value_accessor(proto, name, js_value)

        def send_beacon(interp, this, args):
            target = interp.to_string(args[0]) if interp and args else ""
            self.issue_request(target, ResourceType.BEACON)
            return True

        proto.put("sendBeacon",
                  NativeFunction(send_beacon, name="sendBeacon",
                                 proto=self.realm.function_prototype),
                  enumerable=False)
        self.window_object.put("navigator", navigator, enumerable=False)

    # ------------------------------------------------------------------
    def _install_screen(self) -> None:
        proto = JSObject(proto=self.dom.event_target,
                         class_name="ScreenPrototype")
        self.screen_proto = proto
        screen = JSObject(proto=proto, class_name="Screen")
        for name, value in self.profile.screen.items():
            self._value_accessor(proto, name, value)
        self.window_object.put("screen", screen, enumerable=False)

    # ------------------------------------------------------------------
    def _install_geometry(self) -> None:
        window = self.window_object
        width, height = self.profile.window_size
        base_x, base_y = self.profile.window_position
        offset_x, offset_y = self.profile.window_offset
        x = base_x + offset_x * self.window_index
        y = base_y + offset_y * self.window_index

        self._value_accessor(window, "innerWidth", float(width),
                             enumerable=False)
        self._value_accessor(window, "innerHeight", float(height),
                             enumerable=False)
        self._value_accessor(window, "outerWidth", float(width),
                             enumerable=False)
        self._value_accessor(window, "outerHeight", float(height + 85),
                             enumerable=False)
        self._value_accessor(window, "screenX", float(x), enumerable=False)
        self._value_accessor(window, "screenY", float(y), enumerable=False)
        self._value_accessor(window, "mozInnerScreenX", float(x),
                             enumerable=False)
        self._value_accessor(window, "mozInnerScreenY", float(y),
                             enumerable=False)
        self._value_accessor(window, "devicePixelRatio", 1.0,
                             enumerable=False)

    # ------------------------------------------------------------------
    def _install_timers(self) -> None:
        window = self.window_object

        def set_timeout(interp, this, args):
            fn = args[0] if args else UNDEFINED
            delay = float(args[1]) / 1000.0 \
                if len(args) > 1 and isinstance(args[1], (int, float)) \
                else 0.0
            if isinstance(fn, JSFunction):
                return float(self.browser.schedule(
                    lambda: self._run_callback(fn), delay))
            return 0.0

        def clear_timeout(interp, this, args):
            if args and isinstance(args[0], (int, float)):
                self.browser.cancel_scheduled(int(args[0]))
            return UNDEFINED

        window.put("setTimeout",
                   NativeFunction(set_timeout, name="setTimeout",
                                  proto=self.realm.function_prototype),
                   enumerable=False)
        window.put("setInterval",
                   NativeFunction(set_timeout, name="setInterval",
                                  proto=self.realm.function_prototype),
                   enumerable=False)
        window.put("clearTimeout",
                   NativeFunction(clear_timeout, name="clearTimeout",
                                  proto=self.realm.function_prototype),
                   enumerable=False)
        window.put("clearInterval",
                   NativeFunction(clear_timeout, name="clearInterval",
                                  proto=self.realm.function_prototype),
                   enumerable=False)

    def _run_callback(self, fn: JSFunction) -> None:
        try:
            fn.call(self.interp, UNDEFINED, [])
        except (JSError, ExecutionBudgetExceeded) as exc:
            self.browser.script_errors.append(
                ScriptExecutionError(str(self.url), str(exc)))

    # ------------------------------------------------------------------
    def _install_network_api(self) -> None:
        window = self.window_object

        def fetch(interp, this, args):
            target = interp.to_string(args[0]) if interp and args else ""
            response = self.issue_request(target, ResourceType.XHR)
            return self._make_fetch_response(response)

        window.put("fetch", NativeFunction(
            fetch, name="fetch", proto=self.realm.function_prototype),
            enumerable=False)

        def make_xhr(interp, args):
            xhr = JSObject(proto=self.realm.object_prototype,
                           class_name="XMLHttpRequest")
            state = {"url": "", "response": None}

            def xhr_open(interp2, this2, args2):
                if len(args2) >= 2:
                    state["url"] = interp2.to_string(args2[1]) if interp2 \
                        else str(args2[1])
                return UNDEFINED

            def xhr_send(interp2, this2, args2):
                response = self.issue_request(state["url"], ResourceType.XHR)
                state["response"] = response
                xhr.put("status", float(response.status
                                        if response is not None else 0))
                xhr.put("responseText",
                        response.body if response is not None else "")
                handler = xhr.get("onload", interp2)
                if isinstance(handler, JSFunction):
                    handler.call(interp2, xhr, [])
                return UNDEFINED

            xhr.put("open", NativeFunction(
                xhr_open, name="open", proto=self.realm.function_prototype))
            xhr.put("send", NativeFunction(
                xhr_send, name="send", proto=self.realm.function_prototype))
            return xhr

        window.put("XMLHttpRequest", NativeFunction(
            lambda interp, this, args: make_xhr(interp, args),
            name="XMLHttpRequest", proto=self.realm.function_prototype,
            constructor=make_xhr), enumerable=False)

        def make_image(interp, args):
            img = self.document.create_element("img")
            return img

        window.put("Image", NativeFunction(
            lambda interp, this, args: make_image(interp, args),
            name="Image", proto=self.realm.function_prototype,
            constructor=make_image), enumerable=False)

        def make_websocket(interp, args):
            target = interp.to_string(args[0]) if interp and args else ""
            socket = JSObject(proto=self.realm.object_prototype,
                              class_name="WebSocket")
            socket.put("url", target)
            socket.put("readyState", 0.0)
            socket.put("send", NativeFunction(
                lambda i, t, a: UNDEFINED, name="send",
                proto=self.realm.function_prototype), enumerable=False)
            socket.put("close", NativeFunction(
                lambda i, t, a: UNDEFINED, name="close",
                proto=self.realm.function_prototype), enumerable=False)
            # The handshake is an HTTP upgrade request.
            self.issue_request(target.replace("wss://", "https://")
                               .replace("ws://", "http://"),
                               ResourceType.WEBSOCKET)
            return socket

        window.put("WebSocket", NativeFunction(
            lambda interp, this, args: make_websocket(interp, args),
            name="WebSocket", proto=self.realm.function_prototype,
            constructor=make_websocket), enumerable=False)

    def _make_fetch_response(self, response: Optional[HttpResponse]
                             ) -> JSObject:
        """A synchronously-resolved, thenable Response (promise-lite)."""
        body = response.body if response is not None else ""
        status = float(response.status) if response is not None else 0.0

        def make_thenable(value: Any) -> JSObject:
            thenable = JSObject(proto=self.realm.object_prototype,
                                class_name="Promise")

            def then(interp, this, args):
                fn = args[0] if args else UNDEFINED
                result = value
                if isinstance(fn, JSFunction):
                    result = fn.call(interp, UNDEFINED, [value])
                if isinstance(result, JSObject) and isinstance(
                        result.get_own_descriptor("then"),
                        PropertyDescriptor):
                    return result
                return make_thenable(result)

            def catch(interp, this, args):
                return thenable

            thenable.put("then", NativeFunction(
                then, name="then", proto=self.realm.function_prototype),
                enumerable=False)
            thenable.put("catch", NativeFunction(
                catch, name="catch", proto=self.realm.function_prototype),
                enumerable=False)
            return thenable

        response_object = JSObject(proto=self.realm.object_prototype,
                                   class_name="Response")
        response_object.put("status", status)
        response_object.put("ok", 200 <= status < 300)

        def text(interp, this, args):
            return make_thenable(body)

        response_object.put("text", NativeFunction(
            text, name="text", proto=self.realm.function_prototype))
        return make_thenable(response_object)

    # ------------------------------------------------------------------
    def _install_misc_api(self) -> None:
        window = self.window_object

        def js_eval(interp, this, args):
            source = args[0] if args else UNDEFINED
            if not isinstance(source, str):
                return source
            if not self.document.csp.allows_eval():
                self.report_csp_violation("script-src", "eval")
                raise JSError.type_error("call to eval() blocked by CSP")
            return self.run_script(source, script_url=f"{self.url}#eval",
                                   raise_errors=True, via_eval=True)

        window.put("eval", NativeFunction(
            js_eval, name="eval", proto=self.realm.function_prototype),
            enumerable=False)

        def window_open(interp, this, args):
            target = interp.to_string(args[0]) if interp and args else ""
            popup = self.browser.open_popup(target, opener=self)
            return popup.window_object if popup is not None else NULL

        window.put("open", NativeFunction(
            window_open, name="open", proto=self.realm.function_prototype),
            enumerable=False)

        def btoa(interp, this, args):
            text = interp.to_string(args[0]) if interp and args else ""
            return base64.b64encode(text.encode("latin-1")).decode("ascii")

        def atob(interp, this, args):
            text = interp.to_string(args[0]) if interp and args else ""
            try:
                return base64.b64decode(text.encode("ascii")).decode("latin-1")
            except Exception as exc:  # noqa: BLE001 - surfaced as DOM error
                raise JSError.type_error(f"atob: invalid input: {exc}")

        window.put("btoa", NativeFunction(
            btoa, name="btoa", proto=self.realm.function_prototype),
            enumerable=False)
        window.put("atob", NativeFunction(
            atob, name="atob", proto=self.realm.function_prototype),
            enumerable=False)

        # location
        location = JSObject(proto=self.realm.object_prototype,
                            class_name="Location")
        location.put("href", str(self.url))
        location.put("host", self.url.host)
        location.put("hostname", self.url.host)
        location.put("pathname", self.url.path)
        location.put("protocol", self.url.scheme + ":")
        location.put("origin", self.url.origin)
        window.put("location", location, enumerable=False)
        self.document.put("location", location, enumerable=False)
        self.document.put("URL", str(self.url), enumerable=False)

        # document.fonts (font enumeration channel, Sec. 3.1.3)
        fonts = JSObject(proto=self.realm.object_prototype,
                         class_name="FontFaceSet")
        available = set(self.profile.fonts)

        def fonts_check(interp, this, args):
            spec = interp.to_string(args[0]) if interp and args else ""
            family = spec.split("px", 1)[-1].strip().strip('"\'')
            return family in available

        fonts.put("check", NativeFunction(
            fonts_check, name="check", proto=self.realm.function_prototype),
            enumerable=False)
        self.document.put("fonts", fonts, enumerable=False)

        # Date (only what fingerprinting needs: timezone + clock)
        def make_date(interp, args):
            date = JSObject(proto=self.realm.object_prototype,
                            class_name="Date")
            now_ms = self.browser.current_time * 1000.0

            date.put("getTimezoneOffset", NativeFunction(
                lambda i, t, a: float(self.profile.timezone_offset),
                name="getTimezoneOffset",
                proto=self.realm.function_prototype), enumerable=False)
            date.put("getTime", NativeFunction(
                lambda i, t, a: now_ms, name="getTime",
                proto=self.realm.function_prototype), enumerable=False)
            return date

        date_constructor = NativeFunction(
            lambda interp, this, args: make_date(interp, args),
            name="Date", proto=self.realm.function_prototype,
            constructor=make_date)
        date_constructor.put("now", NativeFunction(
            lambda i, t, a: self.browser.current_time * 1000.0,
            name="now", proto=self.realm.function_prototype),
            enumerable=False)
        window.put("Date", date_constructor, enumerable=False)

        # localStorage
        storage = JSObject(proto=self.realm.object_prototype,
                           class_name="Storage")
        backing = self.browser.local_storage_for(self.url.origin)

        def get_item(interp, this, args):
            key = interp.to_string(args[0]) if interp and args else ""
            return backing.get(key, NULL)

        def set_item(interp, this, args):
            if len(args) >= 2:
                key = interp.to_string(args[0]) if interp else str(args[0])
                backing[key] = interp.to_string(args[1]) if interp \
                    else str(args[1])
            return UNDEFINED

        storage.put("getItem", NativeFunction(
            get_item, name="getItem", proto=self.realm.function_prototype),
            enumerable=False)
        storage.put("setItem", NativeFunction(
            set_item, name="setItem", proto=self.realm.function_prototype),
            enumerable=False)
        window.put("localStorage", storage, enumerable=False)

        self._install_canvas_contexts()
        self._install_performance_history()

    # ------------------------------------------------------------------
    def _make_interface(self, name: str,
                        parent_proto: Optional[JSObject] = None
                        ) -> "tuple[NativeFunction, JSObject]":
        """Create a DOM-style interface: constructor + prototype pair."""
        proto = JSObject(
            proto=parent_proto or self.realm.object_prototype,
            class_name=f"{name}Prototype")
        constructor = NativeFunction(
            lambda interp, this, args: UNDEFINED, name=name,
            proto=self.realm.function_prototype)
        constructor.put("prototype", proto, writable=False, enumerable=False)
        proto.put("constructor", constructor, enumerable=False)
        self.window_object.put(name, constructor, enumerable=False)
        return constructor, proto

    def _put_noop_methods(self, proto: JSObject, names: List[str]) -> None:
        template = self._noop_methods
        properties = proto.properties
        for method_name in names:
            properties[method_name] = LazyDescriptor(
                template, method_name, enumerable=False)

    def _install_canvas_contexts(self) -> None:
        from repro.browser.api_surface import (
            AUDIO_METHODS,
            CANVAS_2D_METHODS,
            WEBGL_METHODS,
        )

        profile = self.profile
        # The WebGLRenderingContext *interface* exists in every mode —
        # headless Firefox merely fails to create contexts — so the JS
        # instrument wraps the same method surface everywhere (Table 2's
        # tampering count is mode-independent). The ~2k parameter
        # constants only exist where a real implementation backs them.
        _, webgl_proto = self._make_interface("WebGLRenderingContext",
                                              self.dom.event_target)
        self._put_noop_methods(
            webgl_proto,
            [m for m in WEBGL_METHODS
             if m not in ("getParameter", "getExtension")])
        if profile.webgl is not None:
            # The ~2k WebGL parameters are identical for every window of
            # a profile; share immutable data descriptors across windows.
            shared = getattr(profile, "_webgl_descriptors", None)
            if shared is None:
                shared = {
                    name: PropertyDescriptor.data(value, writable=False)
                    for name, value in profile.webgl.items()}
                profile._webgl_descriptors = shared
            webgl_proto.properties.update(shared)
            self.shared_descriptors = shared
            context = JSObject(proto=webgl_proto,
                               class_name="WebGLRenderingContext")

            def get_parameter(interp, this, args):
                key = interp.to_string(args[0]) if interp and args else ""
                return profile.webgl.get(key, NULL)

            def get_extension(interp, this, args):
                name = interp.to_string(args[0]) if interp and args else ""
                if name == "WEBGL_debug_renderer_info":
                    info = JSObject(proto=self.realm.object_prototype)
                    info.put("UNMASKED_VENDOR_WEBGL", "UNMASKED_VENDOR_WEBGL")
                    info.put("UNMASKED_RENDERER_WEBGL",
                             "UNMASKED_RENDERER_WEBGL")
                    return info
                return NULL

            webgl_proto.put("getParameter", NativeFunction(
                get_parameter, name="getParameter",
                proto=self.realm.function_prototype), enumerable=False)
            webgl_proto.put("getExtension", NativeFunction(
                get_extension, name="getExtension",
                proto=self.realm.function_prototype), enumerable=False)
            self.webgl_context = context
        else:
            self._put_noop_methods(webgl_proto,
                                   ["getParameter", "getExtension"])
            self.webgl_context = None

        # 2D context: real font measurement (enumeration channel) plus the
        # full method surface the instrument wraps.
        _, context_2d_proto = self._make_interface("CanvasRenderingContext2D")
        self._put_noop_methods(
            context_2d_proto,
            [m for m in CANVAS_2D_METHODS if m != "measureText"])
        context_2d = JSObject(proto=context_2d_proto,
                              class_name="CanvasRenderingContext2D")
        context_2d.put("font", "10px sans-serif")
        available = set(profile.fonts)

        def measure_text(interp, this, args):
            text = interp.to_string(args[0]) if interp and args else ""
            font_spec = context_2d.get("font", interp)
            family = str(font_spec).split("px", 1)[-1].strip().strip('"\'')
            if family in available:
                seed = int(hashlib.sha256(
                    family.encode()).hexdigest()[:4], 16)
                width = len(text) * (6.0 + (seed % 7))
            else:
                width = len(text) * 6.0  # fallback font metrics
            metrics = JSObject(proto=self.realm.object_prototype,
                               class_name="TextMetrics")
            metrics.put("width", width)
            return metrics

        context_2d_proto.put("measureText", NativeFunction(
            measure_text, name="measureText",
            proto=self.realm.function_prototype), enumerable=False)
        self.context_2d = context_2d

        # Audio fingerprinting surface.
        _, audio_proto = self._make_interface("OfflineAudioContext",
                                              self.dom.event_target)
        self._put_noop_methods(audio_proto, AUDIO_METHODS)
        audio_proto.put("sampleRate", 44100.0, enumerable=False)

    def _install_performance_history(self) -> None:
        from repro.browser.api_surface import (
            HISTORY_METHODS,
            PERFORMANCE_METHODS,
        )

        _, performance_proto = self._make_interface("Performance",
                                                    self.dom.event_target)
        self._put_noop_methods(
            performance_proto,
            [m for m in PERFORMANCE_METHODS if m != "now"])
        performance_proto.put("now", NativeFunction(
            lambda i, t, a: self.browser.current_time * 1000.0,
            name="now", proto=self.realm.function_prototype),
            enumerable=False)
        performance = JSObject(proto=performance_proto,
                               class_name="Performance")
        performance.put("timeOrigin", 0.0, enumerable=False)
        self.window_object.put("performance", performance, enumerable=False)

        _, history_proto = self._make_interface("History")
        self._put_noop_methods(history_proto, HISTORY_METHODS)
        history = JSObject(proto=history_proto, class_name="History")
        history.put("length", 1.0, enumerable=False)
        self.window_object.put("history", history, enumerable=False)

    # ------------------------------------------------------------------
    def _install_frames_accessors(self) -> None:
        window = self.window_object

        def frames_getter(interp, this, args):
            return self.realm.new_array([
                frame.window_object for frame in self.child_frames])

        self._accessor(window, "frames", frames_getter, enumerable=False)
        self._value_accessor(
            window, "top",
            self.top_window().window_object
            if self.parent is not None else window, enumerable=False)
        window.put("parent",
                   self.parent.window_object if self.parent is not None
                   else window, enumerable=False)

    def top_window(self) -> "BrowserWindow":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    # ==================================================================
    # Script execution
    # ==================================================================
    def run_script(self, source: str, script_url: str = "inline",
                   raise_errors: bool = False,
                   via_eval: bool = False) -> Any:
        """Execute page JavaScript; errors are captured per-visit."""
        self.browser.note_script_execution(self, script_url, source,
                                           via_eval=via_eval)
        try:
            return self.interp.run(source, script_url)
        except (JSError, ExecutionBudgetExceeded) as exc:
            if raise_errors:
                raise
            self.browser.script_errors.append(
                ScriptExecutionError(script_url, str(exc)))
            return UNDEFINED

    def run_script_with_scope(self, source: str,
                              script_url: str) -> Scope:
        """Run a script and return its top-level scope (extension use)."""
        from repro.jsengine.interpreter import parse_cached

        program = parse_cached(source)
        scope = Scope(function_scope=True)
        return self.interp.run_program_in_scope(
            program, scope, script_url, self.window_object)

    # ==================================================================
    # Host hooks called by the DOM
    # ==================================================================
    def handle_element_attached(self, element: Element,
                                interp: Any = None) -> None:
        if isinstance(element, ScriptElement) and not element.executed:
            element.executed = True
            self._execute_script_element(element)
        elif isinstance(element, IFrameElement) \
                and element.content_window is None:
            self.load_iframe(element, interp)
        elif element.tag_name == "img" and element.attributes.get("src"):
            self.issue_request(element.attributes["src"], ResourceType.IMAGE)
        elif element.tag_name == "link" \
                and element.attributes.get("rel") == "stylesheet" \
                and element.attributes.get("href"):
            self.issue_request(element.attributes["href"],
                               ResourceType.STYLESHEET)

    def _execute_script_element(self, element: ScriptElement) -> None:
        csp = self.document.csp
        if element.src:
            try:
                script_url = URL.parse(element.src, base=self.url)
            except ValueError:
                return
            if not csp.allows_script_url(script_url, self.url):
                self.report_csp_violation("script-src", str(script_url))
                return
            response = self.issue_request(str(script_url),
                                          ResourceType.SCRIPT)
            if response is None or response.status != 200:
                return
            source = None
            if response.script is not None:
                source = response.script.source
            elif "javascript" in response.content_type:
                source = response.body
            if source is not None:
                self.run_script(source, script_url=str(script_url))
        else:
            source = element.text_content
            if not source.strip():
                return
            if not csp.allows_inline_script():
                self.report_csp_violation("script-src", "inline")
                return
            self.run_script(source,
                            script_url=f"{self.url}#inline")

    def handle_document_write(self, html: str, interp: Any = None) -> None:
        self.document.write(html, interp)

    def load_iframe(self, iframe: IFrameElement, interp: Any = None) -> None:
        self.browser.load_iframe(self, iframe)

    def get_canvas_context(self, kind: str) -> Optional[JSObject]:
        if kind in ("webgl", "webgl2", "experimental-webgl"):
            return self.webgl_context
        if kind == "2d":
            return self.context_2d
        return None

    # ------------------------------------------------------------------
    def read_document_cookie(self) -> str:
        return self.browser.cookie_jar.document_cookie_for(
            self.url, self.browser.current_time)

    def write_document_cookie(self, text: str) -> None:
        top_host = self.top_window().url.host
        cookie = self.browser.cookie_jar.set_from_document(
            text, self.url, top_host, self.browser.current_time)
        if cookie is not None:
            self.browser.notify_cookie(cookie, "added-js")

    # ------------------------------------------------------------------
    def issue_request(self, target: str,
                      resource_type: str) -> Optional[HttpResponse]:
        """Resolve *target* against this frame and fetch it."""
        try:
            url = URL.parse(target, base=self.url)
        except ValueError:
            return None
        return self.browser.fetch_resource(url, resource_type, frame=self)

    def report_csp_violation(self, directive: str, blocked: str) -> None:
        violation = CSPViolation(page_url=self.url, directive=directive,
                                 blocked=blocked,
                                 report_uri=self.document.csp.report_uri)
        self.browser.report_csp_violation(self, violation)
