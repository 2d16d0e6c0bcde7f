"""Standard-library builtins and the Realm.

A :class:`Realm` is one JS global environment: the global object, the
standard prototypes (``Object.prototype`` etc.), constructors, ``Math``,
``JSON``, ``console`` and primitive (string/number) method dispatch.
Every page context and every frame gets its own realm, mirroring how
browsers isolate globals per document — which matters for the iframe
instrumentation-bypass attack (paper Sec. 5.4.1).
"""

from __future__ import annotations

import json as _json
import math
import random
from typing import Any, Callable, Dict, List, Optional

from repro.jsobject.descriptors import PropertyDescriptor
from repro.jsobject.errors import JSError
from repro.jsobject.functions import JSFunction, NativeFunction
from repro.jsobject.objects import JSArray, JSObject
from repro.jsobject.values import NULL, UNDEFINED, format_number, js_truthy


class Realm:
    """One JavaScript global environment with its standard builtins."""

    def __init__(self, rng: Optional[random.Random] = None,
                 global_class_name: str = "Window") -> None:
        self.rng = rng or random.Random(0)
        self.console_log: List[str] = []

        self.object_prototype = JSObject(class_name="Object")
        self.function_prototype = JSObject(proto=self.object_prototype,
                                           class_name="Function")
        self.array_prototype = JSObject(proto=self.object_prototype,
                                        class_name="Array")
        self.error_prototype = JSObject(proto=self.object_prototype,
                                        class_name="Error")
        self.global_object = JSObject(proto=self.object_prototype,
                                      class_name=global_class_name)
        self._install_object_prototype()
        self._install_function_prototype()
        self._install_array_prototype()
        self._install_globals()

    # ------------------------------------------------------------------
    def new_object(self) -> JSObject:
        return JSObject(proto=self.object_prototype)

    def new_array(self, elements: Optional[List[Any]] = None) -> JSArray:
        return JSArray(elements or [], proto=self.array_prototype)

    def native(self, name: str,
               fn: Callable[[Any, Any, List[Any]], Any]) -> NativeFunction:
        return NativeFunction(fn, name=name, proto=self.function_prototype)

    # ------------------------------------------------------------------
    # Object.prototype
    # ------------------------------------------------------------------
    def _install_object_prototype(self) -> None:
        proto = self.object_prototype

        def has_own_property(interp, this, args):
            name = _arg_string(interp, args, 0)
            if isinstance(this, JSObject):
                if isinstance(this, JSArray) and (
                        name == "length" or name.isdigit()):
                    return this.has_property(name) and (
                        name == "length" or int(name) < len(this.elements))
                return this.get_own_descriptor(name) is not None
            return False

        def to_string(interp, this, args):
            if isinstance(this, JSObject):
                return f"[object {this.class_name}]"
            return "[object Undefined]"

        def is_prototype_of(interp, this, args):
            candidate = args[0] if args else UNDEFINED
            if not isinstance(candidate, JSObject) or not isinstance(
                    this, JSObject):
                return False
            proto_walker = candidate.proto
            while proto_walker is not None:
                if proto_walker is this:
                    return True
                proto_walker = proto_walker.proto
            return False

        proto.put("hasOwnProperty", self.native("hasOwnProperty",
                                                has_own_property),
                  enumerable=False)
        proto.put("toString", self.native("toString", to_string),
                  enumerable=False)
        proto.put("isPrototypeOf", self.native("isPrototypeOf",
                                               is_prototype_of),
                  enumerable=False)

    # ------------------------------------------------------------------
    # Function.prototype
    # ------------------------------------------------------------------
    def _install_function_prototype(self) -> None:
        proto = self.function_prototype

        def fn_call(interp, this, args):
            if not isinstance(this, JSFunction):
                raise JSError.type_error("Function.prototype.call on non-function")
            bound_this = args[0] if args else UNDEFINED
            return this.call(interp, bound_this, list(args[1:]))

        def fn_apply(interp, this, args):
            if not isinstance(this, JSFunction):
                raise JSError.type_error("Function.prototype.apply on non-function")
            bound_this = args[0] if args else UNDEFINED
            call_args: List[Any] = []
            if len(args) > 1 and isinstance(args[1], JSArray):
                call_args = list(args[1].elements)
            return this.call(interp, bound_this, call_args)

        def fn_bind(interp, this, args):
            if not isinstance(this, JSFunction):
                raise JSError.type_error("Function.prototype.bind on non-function")
            bound_this = args[0] if args else UNDEFINED
            bound_args = list(args[1:])
            target = this

            def bound(interp2, _this2, args2):
                return target.call(interp2, bound_this, bound_args + args2)

            wrapper = self.native(
                f"bound {target.function_name}".strip(), bound)
            wrapper.masquerade_name = target.function_name
            return wrapper

        def fn_to_string(interp, this, args):
            if isinstance(this, JSFunction):
                return this.to_source_string()
            raise JSError.type_error("toString called on non-function")

        proto.put("call", self.native("call", fn_call), enumerable=False)
        proto.put("apply", self.native("apply", fn_apply), enumerable=False)
        proto.put("bind", self.native("bind", fn_bind), enumerable=False)
        proto.put("toString", self.native("toString", fn_to_string),
                  enumerable=False)

    # ------------------------------------------------------------------
    # Array.prototype
    # ------------------------------------------------------------------
    def _install_array_prototype(self) -> None:
        proto = self.array_prototype

        def expect_array(this) -> JSArray:
            if not isinstance(this, JSArray):
                raise JSError.type_error("Array method on non-array")
            return this

        def push(interp, this, args):
            arr = expect_array(this)
            arr.elements.extend(args)
            return float(len(arr.elements))

        def pop(interp, this, args):
            arr = expect_array(this)
            return arr.elements.pop() if arr.elements else UNDEFINED

        def shift(interp, this, args):
            arr = expect_array(this)
            return arr.elements.pop(0) if arr.elements else UNDEFINED

        def index_of(interp, this, args):
            arr = expect_array(this)
            target = args[0] if args else UNDEFINED
            from repro.jsobject.values import js_strict_equals
            for index, value in enumerate(arr.elements):
                if js_strict_equals(value, target):
                    return float(index)
            return -1.0

        def includes(interp, this, args):
            return index_of(interp, this, args) >= 0

        def join(interp, this, args):
            arr = expect_array(this)
            separator = _arg_string(interp, args, 0) if args else ","
            return separator.join(
                "" if (v is UNDEFINED or v is NULL)
                else (interp.to_string(v) if interp else str(v))
                for v in arr.elements)

        def slice(interp, this, args):
            arr = expect_array(this)
            start = int(args[0]) if args and isinstance(
                args[0], (int, float)) else 0
            end = int(args[1]) if len(args) > 1 and isinstance(
                args[1], (int, float)) else len(arr.elements)
            return self.new_array(arr.elements[start:end])

        def concat(interp, this, args):
            arr = expect_array(this)
            elements = list(arr.elements)
            for arg in args:
                if isinstance(arg, JSArray):
                    elements.extend(arg.elements)
                else:
                    elements.append(arg)
            return self.new_array(elements)

        def for_each(interp, this, args):
            arr = expect_array(this)
            fn = args[0] if args else UNDEFINED
            if not isinstance(fn, JSFunction):
                raise JSError.type_error("forEach callback is not a function")
            for index, value in enumerate(list(arr.elements)):
                fn.call(interp, UNDEFINED, [value, float(index), arr])
            return UNDEFINED

        def array_map(interp, this, args):
            arr = expect_array(this)
            fn = args[0] if args else UNDEFINED
            if not isinstance(fn, JSFunction):
                raise JSError.type_error("map callback is not a function")
            return self.new_array([
                fn.call(interp, UNDEFINED, [value, float(index), arr])
                for index, value in enumerate(list(arr.elements))])

        def array_filter(interp, this, args):
            arr = expect_array(this)
            fn = args[0] if args else UNDEFINED
            if not isinstance(fn, JSFunction):
                raise JSError.type_error("filter callback is not a function")
            return self.new_array([
                value for index, value in enumerate(list(arr.elements))
                if js_truthy(fn.call(interp, UNDEFINED,
                                     [value, float(index), arr]))])

        def array_some(interp, this, args):
            arr = expect_array(this)
            fn = args[0] if args else UNDEFINED
            if not isinstance(fn, JSFunction):
                raise JSError.type_error("some callback is not a function")
            return any(js_truthy(fn.call(interp, UNDEFINED,
                                         [value, float(index), arr]))
                       for index, value in enumerate(list(arr.elements)))

        def array_every(interp, this, args):
            arr = expect_array(this)
            fn = args[0] if args else UNDEFINED
            if not isinstance(fn, JSFunction):
                raise JSError.type_error("every callback is not a function")
            return all(js_truthy(fn.call(interp, UNDEFINED,
                                         [value, float(index), arr]))
                       for index, value in enumerate(list(arr.elements)))

        def array_find(interp, this, args):
            arr = expect_array(this)
            fn = args[0] if args else UNDEFINED
            if not isinstance(fn, JSFunction):
                raise JSError.type_error("find callback is not a function")
            for index, value in enumerate(list(arr.elements)):
                if js_truthy(fn.call(interp, UNDEFINED,
                                     [value, float(index), arr])):
                    return value
            return UNDEFINED

        def array_reduce(interp, this, args):
            arr = expect_array(this)
            fn = args[0] if args else UNDEFINED
            if not isinstance(fn, JSFunction):
                raise JSError.type_error(
                    "reduce callback is not a function")
            elements = list(arr.elements)
            if len(args) > 1:
                accumulator = args[1]
                start = 0
            else:
                if not elements:
                    raise JSError.type_error(
                        "reduce of empty array with no initial value")
                accumulator = elements[0]
                start = 1
            for index in range(start, len(elements)):
                accumulator = fn.call(
                    interp, UNDEFINED,
                    [accumulator, elements[index], float(index), arr])
            return accumulator

        def array_reverse(interp, this, args):
            arr = expect_array(this)
            arr.elements.reverse()
            return arr

        def array_sort(interp, this, args):
            arr = expect_array(this)
            comparator = args[0] if args else UNDEFINED
            if isinstance(comparator, JSFunction):
                import functools

                def compare(a, b):
                    result = comparator.call(interp, UNDEFINED, [a, b])
                    try:
                        value = float(result)
                    except (TypeError, ValueError):
                        value = 0.0
                    return -1 if value < 0 else (1 if value > 0 else 0)

                arr.elements.sort(key=functools.cmp_to_key(compare))
            else:
                # Default sort: by string representation (JS semantics).
                arr.elements.sort(
                    key=lambda v: interp.to_string(v) if interp else str(v))
            return arr

        for name, fn in [("push", push), ("pop", pop), ("shift", shift),
                         ("indexOf", index_of), ("includes", includes),
                         ("join", join), ("slice", slice),
                         ("concat", concat), ("forEach", for_each),
                         ("map", array_map), ("filter", array_filter),
                         ("some", array_some), ("every", array_every),
                         ("find", array_find), ("reduce", array_reduce),
                         ("reverse", array_reverse), ("sort", array_sort)]:
            proto.put(name, self.native(name, fn), enumerable=False)

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------
    def _install_globals(self) -> None:
        g = self.global_object
        g.put("undefined", UNDEFINED, writable=False, enumerable=False)
        g.put("NaN", math.nan, writable=False, enumerable=False)
        g.put("Infinity", math.inf, writable=False, enumerable=False)

        g.put("Object", self._make_object_constructor(), enumerable=False)
        g.put("Array", self._make_array_constructor(), enumerable=False)
        for kind in ("Error", "TypeError", "RangeError", "ReferenceError",
                     "SyntaxError"):
            g.put(kind, self._make_error_constructor(kind), enumerable=False)
        g.put("Math", self._make_math(), enumerable=False)
        g.put("JSON", self._make_json(), enumerable=False)
        g.put("console", self._make_console(), enumerable=False)
        g.put("String", self._make_string_constructor(), enumerable=False)
        g.put("Number", self._make_number_constructor(), enumerable=False)
        g.put("Boolean", self.native(
            "Boolean", lambda i, t, a: js_truthy(a[0]) if a else False),
            enumerable=False)

        def parse_int(interp, this, args):
            text = _arg_string(interp, args, 0).strip()
            base = int(args[1]) if len(args) > 1 and isinstance(
                args[1], (int, float)) else 10
            negative = text.startswith("-")
            if text.startswith(("+", "-")):
                text = text[1:]
            if base == 16 and text.lower().startswith("0x"):
                text = text[2:]
            digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
            end = 0
            for char in text.lower():
                if char not in digits:
                    break
                end += 1
            if end == 0:
                return math.nan
            value = float(int(text[:end], base))
            return -value if negative else value

        def parse_float(interp, this, args):
            text = _arg_string(interp, args, 0).strip()
            end = len(text)
            while end > 0:
                try:
                    return float(text[:end])
                except ValueError:
                    end -= 1
            return math.nan

        g.put("parseInt", self.native("parseInt", parse_int),
              enumerable=False)
        g.put("parseFloat", self.native("parseFloat", parse_float),
              enumerable=False)
        g.put("isNaN", self.native(
            "isNaN",
            lambda i, t, a: math.isnan(i.to_number(a[0]) if i else 0.0)
            if a else True), enumerable=False)

    def _make_object_constructor(self) -> NativeFunction:
        def object_call(interp, this, args):
            if args and isinstance(args[0], JSObject):
                return args[0]
            return self.new_object()

        constructor = NativeFunction(
            object_call, name="Object", proto=self.function_prototype,
            constructor=lambda interp, args: object_call(interp, None, args))
        constructor.put("prototype", self.object_prototype, writable=False,
                        enumerable=False)

        def keys(interp, this, args):
            obj = args[0] if args else UNDEFINED
            if not isinstance(obj, JSObject):
                return self.new_array([])
            if isinstance(obj, JSArray):
                names = [str(i) for i in range(len(obj.elements))]
                names += [n for n, d in obj.properties.items()
                          if d.enumerable]
                return self.new_array(names)
            return self.new_array([
                name for name, desc in obj.properties.items()
                if desc.enumerable])

        def get_own_property_names(interp, this, args):
            obj = args[0] if args else UNDEFINED
            if not isinstance(obj, JSObject):
                return self.new_array([])
            return self.new_array(list(obj.own_keys()))

        def define_property(interp, this, args):
            obj = args[0] if args else UNDEFINED
            if not isinstance(obj, JSObject):
                raise JSError.type_error(
                    "Object.defineProperty called on non-object")
            name = _arg_string(interp, args, 1)
            attributes = args[2] if len(args) > 2 else UNDEFINED
            if not isinstance(attributes, JSObject):
                raise JSError.type_error("property descriptor must be object")
            desc = PropertyDescriptor(
                enumerable=js_truthy(attributes.get("enumerable", interp)),
                configurable=js_truthy(
                    attributes.get("configurable", interp)),
            )
            getter = attributes.get("get", interp)
            setter = attributes.get("set", interp)
            if isinstance(getter, JSFunction) or isinstance(
                    setter, JSFunction):
                desc.get = getter if isinstance(getter, JSFunction) else None
                desc.set = setter if isinstance(setter, JSFunction) else None
            else:
                desc.value = attributes.get("value", interp)
                desc.writable = js_truthy(attributes.get("writable", interp))
            try:
                obj.define_property(name, desc)
            except TypeError as exc:
                raise JSError.type_error(str(exc)) from exc
            return obj

        def get_own_property_descriptor(interp, this, args):
            obj = args[0] if args else UNDEFINED
            if not isinstance(obj, JSObject):
                return UNDEFINED
            name = _arg_string(interp, args, 1)
            desc = obj.get_own_descriptor(name)
            if desc is None:
                return UNDEFINED
            result = self.new_object()
            if desc.is_accessor:
                result.put("get", desc.get if desc.get else UNDEFINED)
                result.put("set", desc.set if desc.set else UNDEFINED)
            else:
                result.put("value", desc.value)
                result.put("writable", desc.writable)
            result.put("enumerable", desc.enumerable)
            result.put("configurable", desc.configurable)
            return result

        def get_prototype_of(interp, this, args):
            obj = args[0] if args else UNDEFINED
            if isinstance(obj, JSObject):
                return obj.proto if obj.proto is not None else NULL
            return NULL

        def create(interp, this, args):
            proto_arg = args[0] if args else UNDEFINED
            proto = proto_arg if isinstance(proto_arg, JSObject) else None
            return JSObject(proto=proto)

        def freeze(interp, this, args):
            obj = args[0] if args else UNDEFINED
            if isinstance(obj, JSObject):
                obj.extensible = False
                # Frozen copies: a descriptor may be shared with other
                # objects (a profile's WebGL constants are shared by
                # all its windows), which must not be frozen too.
                properties = obj.properties
                for name, desc in properties.items():
                    frozen = desc.copy()
                    frozen.writable = False
                    frozen.configurable = False
                    properties[name] = frozen
            return obj

        for name, fn in [("keys", keys),
                         ("getOwnPropertyNames", get_own_property_names),
                         ("defineProperty", define_property),
                         ("getOwnPropertyDescriptor",
                          get_own_property_descriptor),
                         ("getPrototypeOf", get_prototype_of),
                         ("create", create),
                         ("freeze", freeze)]:
            constructor.put(name, self.native(name, fn), enumerable=False)
        return constructor

    def _make_array_constructor(self) -> NativeFunction:
        def array_call(interp, this, args):
            if len(args) == 1 and isinstance(args[0], (int, float)) \
                    and not isinstance(args[0], bool):
                return self.new_array([UNDEFINED] * int(args[0]))
            return self.new_array(list(args))

        constructor = NativeFunction(
            array_call, name="Array", proto=self.function_prototype,
            constructor=lambda interp, args: array_call(interp, None, args))
        constructor.put("prototype", self.array_prototype, writable=False,
                        enumerable=False)
        constructor.put("isArray", self.native(
            "isArray", lambda i, t, a: bool(a) and isinstance(a[0], JSArray)),
            enumerable=False)

        def array_from(interp, this, args):
            source = args[0] if args else UNDEFINED
            if isinstance(source, JSArray):
                return self.new_array(list(source.elements))
            if isinstance(source, str):
                return self.new_array(list(source))
            if isinstance(source, JSObject):
                length = source.get("length", interp)
                if isinstance(length, (int, float)):
                    return self.new_array([
                        source.get(str(i), interp)
                        for i in range(int(length))])
            return self.new_array([])

        constructor.put("from", self.native("from", array_from),
                        enumerable=False)
        return constructor

    def _make_error_constructor(self, kind: str) -> NativeFunction:
        def construct(interp, args):
            message = ""
            if args and args[0] is not UNDEFINED:
                message = interp.to_string(args[0]) if interp else str(args[0])
            if interp is not None:
                error = interp.make_error(kind, message)
            else:
                from repro.jsobject.errors import make_error_object
                error = make_error_object(kind, message)
            error.proto = self.error_prototype
            return error

        constructor = NativeFunction(
            lambda interp, this, args: construct(interp, args),
            name=kind, proto=self.function_prototype,
            constructor=construct)
        constructor.put("prototype", self.error_prototype, writable=False,
                        enumerable=False)
        return constructor

    def _make_math(self) -> JSObject:
        math_object = self.new_object()
        math_object.class_name = "Math"

        def one_arg(fn):
            return lambda interp, this, args: (
                fn(interp.to_number(args[0]) if interp else float(args[0]))
                if args else math.nan)

        math_object.put("floor", self.native(
            "floor", one_arg(lambda x: float(math.floor(x))
                             if not math.isnan(x) and not math.isinf(x)
                             else x)), enumerable=False)
        math_object.put("ceil", self.native(
            "ceil", one_arg(lambda x: float(math.ceil(x))
                            if not math.isnan(x) and not math.isinf(x)
                            else x)), enumerable=False)
        math_object.put("round", self.native(
            "round", one_arg(lambda x: float(math.floor(x + 0.5))
                             if not math.isnan(x) and not math.isinf(x)
                             else x)), enumerable=False)
        math_object.put("abs", self.native("abs", one_arg(abs)),
                        enumerable=False)
        math_object.put("sqrt", self.native(
            "sqrt", one_arg(lambda x: math.sqrt(x) if x >= 0 else math.nan)),
            enumerable=False)
        math_object.put("random", self.native(
            "random", lambda interp, this, args: self.rng.random()),
            enumerable=False)
        math_object.put("max", self.native(
            "max", lambda interp, this, args: max(
                (float(a) for a in args), default=-math.inf)),
            enumerable=False)
        math_object.put("min", self.native(
            "min", lambda interp, this, args: min(
                (float(a) for a in args), default=math.inf)),
            enumerable=False)
        math_object.put("pow", self.native(
            "pow", lambda interp, this, args: float(args[0]) ** float(args[1])
            if len(args) > 1 else math.nan), enumerable=False)
        math_object.put("PI", math.pi, writable=False, enumerable=False)
        return math_object

    def _make_json(self) -> JSObject:
        json_object = self.new_object()
        json_object.class_name = "JSON"

        def stringify(interp, this, args):
            value = args[0] if args else UNDEFINED
            if value is UNDEFINED:
                return UNDEFINED
            return _json.dumps(js_to_python(value, interp),
                               separators=(",", ":"))

        def parse(interp, this, args):
            text = _arg_string(interp, args, 0)
            try:
                data = _json.loads(text)
            except ValueError as exc:
                raise JSError.syntax_error(
                    f"JSON.parse: {exc}") from exc
            return python_to_js(data, self)

        json_object.put("stringify", self.native("stringify", stringify),
                        enumerable=False)
        json_object.put("parse", self.native("parse", parse),
                        enumerable=False)
        return json_object

    def _make_console(self) -> JSObject:
        console = self.new_object()
        console.class_name = "Console"

        def log(interp, this, args):
            rendered = " ".join(
                interp.to_string(a) if interp else str(a) for a in args)
            self.console_log.append(rendered)
            return UNDEFINED

        for name in ("log", "warn", "error", "info", "debug"):
            console.put(name, self.native(name, log), enumerable=False)
        return console

    def _make_string_constructor(self) -> NativeFunction:
        def string_call(interp, this, args):
            if not args:
                return ""
            return interp.to_string(args[0]) if interp else str(args[0])

        constructor = NativeFunction(
            string_call, name="String", proto=self.function_prototype,
            constructor=lambda interp, args: string_call(interp, None, args))
        constructor.put("fromCharCode", self.native(
            "fromCharCode",
            lambda interp, this, args: "".join(
                chr(int(a)) for a in args
                if isinstance(a, (int, float)))), enumerable=False)
        return constructor

    def _make_number_constructor(self) -> NativeFunction:
        def number_call(interp, this, args):
            if not args:
                return 0.0
            return interp.to_number(args[0]) if interp else float(args[0])

        constructor = NativeFunction(
            number_call, name="Number", proto=self.function_prototype,
            constructor=lambda interp, args: number_call(interp, None, args))
        constructor.put("isInteger", self.native(
            "isInteger", lambda i, t, a: bool(a) and isinstance(
                a[0], (int, float)) and not isinstance(a[0], bool)
            and float(a[0]).is_integer()), enumerable=False)
        constructor.put("MAX_SAFE_INTEGER", float(2**53 - 1),
                        writable=False, enumerable=False)
        return constructor

    # ------------------------------------------------------------------
    # Primitive member dispatch (auto-boxing)
    # ------------------------------------------------------------------
    def get_primitive_member(self, value: Any, name: str,
                             interp: Any) -> Any:
        # Exact-type dispatch: engine values are always exact str/float/
        # bool (the lexer and coercions never produce subclasses), and
        # this is the hottest builtins path of compiled code
        # (every `s.length` / `s.charCodeAt(...)` on a primitive lands
        # here).
        kind = type(value)
        if kind is str:
            return self._string_member(value, name, interp)
        if kind is bool:
            if name == "toString":
                return self.native(
                    "toString",
                    lambda i, t, a, v=value: "true" if v else "false")
            return UNDEFINED
        if kind is float or kind is int:
            return self._number_member(float(value), name)
        return UNDEFINED

    def _string_member(self, value: str, name: str, interp: Any) -> Any:
        if name == "length":
            return float(len(value))
        if name.isdigit():
            index = int(name)
            return value[index] if index < len(value) else UNDEFINED
        methods = _STRING_METHODS.get(name)
        if methods is None:
            return UNDEFINED
        return NativeFunction(
            lambda i, t, a, v=value, fn=methods: fn(self, i, v, a),
            name=name, proto=self.function_prototype)

    def _number_member(self, value: float, name: str) -> Any:
        if name == "toString":
            return self.native(
                "toString", lambda i, t, a, v=value: _number_to_string(v, a))
        if name == "toFixed":
            return self.native(
                "toFixed",
                lambda i, t, a, v=value: f"{v:.{int(a[0]) if a else 0}f}")
        return UNDEFINED


def _number_to_string(value: float, args: List[Any]) -> str:
    if args and isinstance(args[0], (int, float)):
        base = int(args[0])
        if base != 10:
            integer = int(value)
            if integer == 0:
                return "0"
            digits = "0123456789abcdefghijklmnopqrstuvwxyz"
            negative = integer < 0
            integer = abs(integer)
            out = []
            while integer:
                out.append(digits[integer % base])
                integer //= base
            return ("-" if negative else "") + "".join(reversed(out))
    return format_number(value)


def _arg_string(interp: Any, args: List[Any], index: int) -> str:
    if index >= len(args):
        return "undefined"
    value = args[index]
    if interp is not None:
        return interp.to_string(value)
    from repro.jsobject.values import to_js_string
    return to_js_string(value)


# String methods: fn(realm, interp, subject, args) -> value
def _sm_index_of(realm, interp, subject, args):
    needle = _arg_string(interp, args, 0)
    start = int(args[1]) if len(args) > 1 and isinstance(
        args[1], (int, float)) else 0
    return float(subject.find(needle, start))


def _sm_includes(realm, interp, subject, args):
    return _arg_string(interp, args, 0) in subject


def _sm_slice(realm, interp, subject, args):
    start = int(args[0]) if args and isinstance(args[0], (int, float)) else 0
    end = int(args[1]) if len(args) > 1 and isinstance(
        args[1], (int, float)) else len(subject)
    return subject[slice(*_normalise_range(start, end, len(subject)))]


def _normalise_range(start: int, end: int, length: int):
    if start < 0:
        start = max(0, length + start)
    if end < 0:
        end = max(0, length + end)
    return start, end


def _sm_substring(realm, interp, subject, args):
    start = int(args[0]) if args and isinstance(args[0], (int, float)) else 0
    end = int(args[1]) if len(args) > 1 and isinstance(
        args[1], (int, float)) else len(subject)
    start = max(0, min(start, len(subject)))
    end = max(0, min(end, len(subject)))
    if start > end:
        start, end = end, start
    return subject[start:end]


def _sm_char_at(realm, interp, subject, args):
    index = int(args[0]) if args and isinstance(args[0], (int, float)) else 0
    return subject[index] if 0 <= index < len(subject) else ""


def _sm_char_code_at(realm, interp, subject, args):
    index = int(args[0]) if args and isinstance(args[0], (int, float)) else 0
    return float(ord(subject[index])) if 0 <= index < len(subject) \
        else math.nan


def _sm_split(realm, interp, subject, args):
    if not args or args[0] is UNDEFINED:
        return realm.new_array([subject])
    separator = _arg_string(interp, args, 0)
    if separator == "":
        return realm.new_array(list(subject))
    return realm.new_array(subject.split(separator))


def _sm_replace(realm, interp, subject, args):
    pattern = _arg_string(interp, args, 0)
    replacement = _arg_string(interp, args, 1)
    return subject.replace(pattern, replacement, 1)


def _sm_replace_all(realm, interp, subject, args):
    pattern = _arg_string(interp, args, 0)
    replacement = _arg_string(interp, args, 1)
    return subject.replace(pattern, replacement)


_STRING_METHODS: Dict[str, Callable] = {
    "indexOf": _sm_index_of,
    "includes": _sm_includes,
    "slice": _sm_slice,
    "substring": _sm_substring,
    "charAt": _sm_char_at,
    "charCodeAt": _sm_char_code_at,
    "split": _sm_split,
    "replace": _sm_replace,
    "replaceAll": _sm_replace_all,
    "toLowerCase": lambda realm, interp, s, a: s.lower(),
    "toUpperCase": lambda realm, interp, s, a: s.upper(),
    "trim": lambda realm, interp, s, a: s.strip(),
    "startsWith": lambda realm, interp, s, a: s.startswith(
        _arg_string(interp, a, 0)),
    "endsWith": lambda realm, interp, s, a: s.endswith(
        _arg_string(interp, a, 0)),
    "concat": lambda realm, interp, s, a: s + "".join(
        _arg_string(interp, a, i) for i in range(len(a))),
    "repeat": lambda realm, interp, s, a: s * int(a[0]) if a else "",
    "toString": lambda realm, interp, s, a: s,
    "padStart": lambda realm, interp, s, a: s.rjust(
        int(a[0]) if a else 0,
        _arg_string(interp, a, 1) if len(a) > 1 else " "),
}


# ---------------------------------------------------------------------------
# Python <-> JS data conversion (used by JSON and by host-side tooling)
# ---------------------------------------------------------------------------
def js_to_python(value: Any, interp: Any = None) -> Any:
    """Convert a JS value tree into plain Python data (JSON-shaped)."""
    if value is UNDEFINED or value is NULL:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() and abs(value) < 2**53 \
            else value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, JSArray):
        return [js_to_python(v, interp) for v in value.elements]
    if isinstance(value, JSFunction):
        return None
    if isinstance(value, JSObject):
        return {name: js_to_python(value.get(name, interp), interp)
                for name, desc in value.properties.items()
                if desc.enumerable}
    raise TypeError(f"not a JS value: {value!r}")


def python_to_js(data: Any, realm: Realm) -> Any:
    """Convert plain Python data into JS values in *realm*."""
    if data is None:
        return NULL
    if isinstance(data, bool):
        return data
    if isinstance(data, (int, float)):
        return float(data)
    if isinstance(data, str):
        return data
    if isinstance(data, (list, tuple)):
        return realm.new_array([python_to_js(item, realm) for item in data])
    if isinstance(data, dict):
        obj = realm.new_object()
        for key, value in data.items():
            obj.put(str(key), python_to_js(value, realm))
        return obj
    raise TypeError(f"cannot convert {data!r} to a JS value")
