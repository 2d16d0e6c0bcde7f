"""The JS execution context: realm, scopes, call stack and op budget.

An :class:`Interpreter` runs page scripts against a *realm* (a global
object plus the standard builtins, see :mod:`repro.jsengine.builtins`).
Each program is parsed once per content hash and lowered to Python
closures by :mod:`repro.jsengine.compiler`; this module holds what those
closures run against: scopes, member access with the engine access
hook, operators and conversions, and a JS call stack so thrown errors
carry realistic stack traces — the channel the paper uses to detect
OpenWPM's wrapper functions (Sec. 3.1.4) and that the hardened
instrumentation sanitises (Sec. 6.1.3).
"""

from __future__ import annotations

import hashlib
import math
import sys
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.jsengine import ast_nodes as ast
from repro.jsengine.parser import parse
from repro.jsobject.errors import JSError, StackFrame, make_error_object
from repro.jsobject.functions import JSFunction
from repro.jsobject.objects import JSArray, JSObject
from repro.jsobject.values import (
    NULL,
    UNDEFINED,
    format_number,
    js_equals,
    js_strict_equals,
    to_number,
)


# Each JS call nests several Python frames (compiled closures call one
# another per AST level); raise the limit so the JS-level "too much
# recursion" guard in ``push_frame`` fires before Python's.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)

def source_digest(source: str) -> str:
    """sha256 of the source text; the same formula as the script corpus
    (`repro.corpus.script_hash`), so the scan pipeline's content hashes
    address this cache directly."""
    return hashlib.sha256(
        source.encode("utf-8", "surrogatepass")).hexdigest()


class _ASTCache:
    """Process-wide LRU parse cache keyed by content hash.

    Keys are sha256 digests (64 bytes each) rather than full source
    texts, so the key side no longer pins large script bodies in RAM,
    and eviction is LRU instead of the old "silently stop caching at
    2048 entries". Compiled closure trees attach to the cached
    ``Program`` nodes, so evicting an entry releases both the AST and
    its compiled form together.
    """

    def __init__(self, max_entries: int = 2048) -> None:
        self._programs: "OrderedDict[str, ast.Program]" = OrderedDict()
        self._max = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, source: str) -> "ast.Program":
        digest = source_digest(source)
        with self._lock:
            program = self._programs.get(digest)
            if program is not None:
                self._programs.move_to_end(digest)
                self.hits += 1
                return program
            self.misses += 1
        program = parse(source)  # outside the lock; SyntaxError propagates
        with self._lock:
            existing = self._programs.get(digest)
            if existing is not None:
                # Raced with another thread: keep the first copy (it may
                # already carry a compiled tree).
                return existing
            self._programs[digest] = program
            while len(self._programs) > self._max:
                self._programs.popitem(last=False)
                self.evictions += 1
        return program

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "entries": len(self._programs)}

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self.hits = self.misses = self.evictions = 0


#: Process-wide parse cache (content hash -> immutable Program AST).
_AST_CACHE = _ASTCache()


def parse_cached(source: str):
    """Parse with the process-wide AST cache (ASTs are never mutated)."""
    return _AST_CACHE.get(source)


def ast_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters of the process-wide AST cache."""
    return _AST_CACHE.stats()


def clear_ast_cache() -> None:
    """Drop all cached (and compiled) programs; for tests/benchmarks."""
    _AST_CACHE.clear()


def export_cache_metrics(metrics: Any) -> None:
    """Publish AST-cache counters through a metrics registry
    (:class:`repro.obs.metrics.MetricsRegistry`)."""
    stats = _AST_CACHE.stats()
    metrics.gauge("jsengine_ast_cache_hits").set(float(stats["hits"]))
    metrics.gauge("jsengine_ast_cache_misses").set(float(stats["misses"]))
    metrics.gauge("jsengine_ast_cache_evictions").set(
        float(stats["evictions"]))
    metrics.gauge("jsengine_ast_cache_entries").set(float(stats["entries"]))


#: Engine-wide profiler hook (a
#: :class:`repro.obs.profiler.ScriptProfiler`, or ``None``). Installed
#: via :func:`repro.obs.profiler.install_profiler`; interpreters
#: capture it at construction, so the disabled cost is one ``is not
#: None`` branch per frame push/pop.
_PROFILER: Optional[Any] = None


def warm_compile_cache(source: str) -> str:
    """Parse and compile *source* into the AST cache, so a later
    ``run()`` of the same content hash pays neither cost. Returns the
    digest. Used by the corpus store to pre-compile known script
    bodies."""
    from repro.jsengine.compiler import compile_program

    compile_program(_AST_CACHE.get(source))
    return source_digest(source)


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value
        super().__init__()


class ExecutionBudgetExceeded(RuntimeError):
    """Raised when a script exceeds the interpreter's operation budget."""


class Scope:
    """A lexical scope with a parent link (closures share scopes).

    ``function_scope`` marks function/global scopes: ``var``
    declarations hoist to the nearest one, while ``let``/``const`` bind
    to the block scope they appear in.
    """

    __slots__ = ("variables", "parent", "constants", "function_scope")

    def __init__(self, parent: Optional["Scope"] = None,
                 function_scope: bool = False) -> None:
        self.variables: Dict[str, Any] = {}
        # Lazily allocated: most scopes never declare a const, and loop
        # bodies allocate one scope per iteration.
        self.constants: Optional[set] = None
        self.parent = parent
        self.function_scope = function_scope

    def declare(self, name: str, value: Any, kind: str = "var") -> None:
        target = self.nearest_function_scope() if kind == "var" else self
        target.variables[name] = value
        if kind == "const":
            if target.constants is None:
                target.constants = set()
            target.constants.add(name)

    def nearest_function_scope(self) -> "Scope":
        scope: Scope = self
        while not scope.function_scope and scope.parent is not None:
            scope = scope.parent
        return scope

    def resolve(self, name: str) -> Optional["Scope"]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.variables:
                return scope
            scope = scope.parent
        return None


class Frame:
    """A mutable call-stack frame; snapshotted into StackFrame on capture."""

    __slots__ = ("function_name", "script_url", "line", "column")

    def __init__(self, function_name: str, script_url: str,
                 line: int = 0, column: int = 0) -> None:
        self.function_name = function_name
        self.script_url = script_url
        self.line = line
        self.column = column

    def snapshot(self) -> StackFrame:
        return StackFrame(self.function_name, self.script_url,
                          self.line, self.column)


class ScriptFunction(JSFunction):
    """A function defined by interpreted JavaScript.

    ``toString`` returns the original source slice — which is how the
    paper's Listing 1 detects that OpenWPM replaced a native builtin with
    a script-level wrapper.
    """

    def __init__(self, node: ast.FunctionExpression, closure: Scope,
                 interp: "Interpreter",
                 captured_this: Any = None,
                 lightweight: bool = False) -> None:
        proto = interp.realm.function_prototype if interp.realm else None
        super().__init__(name=node.name, proto=proto)
        self.node = node
        self.closure = closure
        self.home_interpreter = interp
        self.script_url = interp.current_script_url
        self.is_arrow = node.is_arrow
        self.captured_this = captured_this
        # ``lightweight`` skips the own prototype/name/length properties;
        # used for the instrumentation wrappers (built when a page first
        # touches a wrapped API), which are never constructed and never
        # introspected through those props.
        if lightweight:
            return
        if not node.is_arrow:
            prototype = JSObject(
                proto=interp.realm.object_prototype if interp.realm else None)
            prototype.put("constructor", self, enumerable=False)
            self.put("prototype", prototype, enumerable=False)
        self.put("name", node.name, writable=False, enumerable=False)
        self.put("length", float(len(node.params)), writable=False,
                 enumerable=False)

    def call(self, interp: Any, this: Any, args: List[Any]) -> Any:
        # A function executes in its *home* realm regardless of which
        # realm calls it (ECMAScript realm semantics). A parent frame
        # calling into an iframe's wrapped API must resolve `document`
        # etc. against the iframe's globals.
        interp = self.home_interpreter or interp
        # Compiled bodies cache on the (shared, immutable) AST node: the
        # instrumentation wrapper templates are four process-wide nodes,
        # so every wrapper of every window shares four compiled bodies.
        plan = getattr(self.node, "_compiled_plan", None)
        if plan is None:
            from repro.jsengine.compiler import compile_function
            plan = compile_function(self.node)
        return plan.call(self, interp, this, args)

    def construct(self, interp: Any, args: List[Any]) -> Any:
        interp = interp or self.home_interpreter
        prototype = self.get("prototype", interp)
        if not isinstance(prototype, JSObject):
            prototype = interp.realm.object_prototype if interp.realm else None
        instance = JSObject(proto=prototype)
        result = self.call(interp, instance, args)
        return result if isinstance(result, JSObject) else instance

    def to_source_string(self) -> str:
        return self.node.source


class Interpreter:
    """Executes scripts against a realm/global object.

    One interpreter instance corresponds to one JS execution context
    (e.g. a page's main world). A browser creates one per window/frame.
    """

    #: default per-run operation budget (a single script's visit count)
    DEFAULT_BUDGET = 5_000_000

    def __init__(self, realm: Any = None,
                 budget: int = DEFAULT_BUDGET) -> None:
        # realm is a repro.jsengine.builtins.Realm (kept duck-typed to
        # avoid an import cycle).
        self.realm = realm
        self.global_object: Optional[JSObject] = (
            realm.global_object if realm else None)
        self.budget = budget
        # Countdown budget: decremented once per executed node by the
        # compiled closures, reset to
        # ``budget`` at every program start; the error materializes only
        # on expiry.
        self._ops_left = budget
        # Per-interpreter profiler capture (see module-level _PROFILER).
        self.profiler = _PROFILER
        self._profile_hash: Optional[str] = None
        self.call_stack: List[Frame] = []
        self.current_script_url = "<host>"
        self.current_this: Any = self.global_object
        #: Engine-level access hook: ``fn(kind, obj, name, payload)``
        #: with kind in {'get', 'set', 'call'}. Invoked for member
        #: accesses *below* the page's object layer — the debugger-API
        #: instrumentation channel the paper recommends (Sec. 8): no
        #: page-visible descriptor is touched.
        self.access_hook: Optional[Any] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, source: str, script_url: str = "inline") -> Any:
        """Parse and execute *source*; returns the last statement's value.

        Parsed programs are cached process-wide keyed by content hash
        (the synthetic web serves identical scripts to thousands of
        sites); the AST is never mutated, so sharing across realms is
        safe. The compiled closure tree is cached on the program too, so
        each unique script compiles once.

        Syntax errors and uncaught JS throws propagate as
        :class:`repro.jsobject.errors.JSError`.
        """
        try:
            program = _AST_CACHE.get(source)
        except SyntaxError as exc:
            raise JSError.syntax_error(str(exc)) from exc
        if self.profiler is not None:
            # The content hash the profiler attributes this program
            # run's ops to — same formula as the corpus store, so hot
            # scripts join it directly. Computed only when profiling.
            self._profile_hash = source_digest(source)
        return self.run_program(program, script_url)

    def run_program(self, program: ast.Program,
                    script_url: str = "inline") -> Any:
        from repro.jsengine.compiler import compile_program

        return compile_program(program).run(self, script_url)

    def run_program_in_scope(self, program: ast.Program, scope: Scope,
                             script_url: str, this: Any,
                             frame_name: str = "<instrument>") -> Scope:
        """Execute *program* against a caller-provided top-level scope.

        Used by the extension layer (instrument injection) which needs
        the script's scope afterwards to plant host helpers. The budget
        countdown is deliberately *not* reset — this path rides on the
        current script's budget.
        """
        from repro.jsengine.compiler import compile_program

        unit = compile_program(program)
        previous_url = self.current_script_url
        self.current_script_url = script_url
        self.push_frame(Frame(frame_name, script_url))
        previous_this = self.current_this
        self.current_this = this
        try:
            unit.run_in_scope(self, scope)
        finally:
            self.current_this = previous_this
            self.pop_frame()
            self.current_script_url = previous_url
        return scope

    @property
    def ops_used(self) -> int:
        """Operations consumed since the current program started."""
        return self.budget - self._ops_left

    def call_function(self, fn: JSFunction, this: Any = None,
                      args: Optional[List[Any]] = None) -> Any:
        """Host-side helper to invoke a JS function."""
        return fn.call(self, this if this is not None else UNDEFINED,
                       args or [])

    # ------------------------------------------------------------------
    # Stack management
    # ------------------------------------------------------------------
    def push_frame(self, frame: Frame) -> None:
        if len(self.call_stack) > 200:
            raise JSError(self.make_error(
                "InternalError", "too much recursion"))
        self.call_stack.append(frame)
        if self.profiler is not None:
            self.profiler.on_push(self, frame)

    def pop_frame(self) -> None:
        frame = self.call_stack.pop()
        if self.profiler is not None:
            self.profiler.on_pop(self, frame)

    def capture_stack(self) -> List[StackFrame]:
        """Snapshot the call stack, innermost frame first."""
        return [frame.snapshot() for frame in reversed(self.call_stack)]

    def make_error(self, kind: str, message: str) -> JSObject:
        """Build an Error object carrying the current stack."""
        frames = self.capture_stack()
        script_url = frames[0].script_url if frames else self.current_script_url
        line = frames[0].line if frames else 0
        column = frames[0].column if frames else 0
        error = make_error_object(kind, message, frames, script_url,
                                  line, column)
        if self.realm is not None:
            error.proto = self.realm.error_prototype
        return error

    def throw(self, kind: str, message: str) -> None:
        raise JSError(self.make_error(kind, message))

    def _budget_error(self) -> None:
        raise ExecutionBudgetExceeded(
            f"script exceeded {self.budget} operations")

    # ------------------------------------------------------------------
    # Runtime helpers the compiled closures call
    # ------------------------------------------------------------------
    def _iterate_keys(self, target: Any) -> List[Any]:
        if isinstance(target, JSObject):
            return list(target.enumerable_keys())
        if isinstance(target, str):
            return [str(i) for i in range(len(target))]
        return []

    def _iterate_values(self, target: Any) -> List[Any]:
        if isinstance(target, JSArray):
            return list(target.elements)
        if isinstance(target, str):
            return list(target)
        if isinstance(target, JSObject):
            return [target.get(key, self)
                    for key in target.enumerable_keys()]
        self.throw("TypeError", "value is not iterable")

    def get_member(self, obj: Any, name: str) -> Any:
        """Property read with primitive auto-boxing."""
        if obj is UNDEFINED or obj is NULL:
            self.throw("TypeError",
                       f"can't access property {name!r} of "
                       f"{'undefined' if obj is UNDEFINED else 'null'}")
        if isinstance(obj, JSObject):
            value = obj.get(name, self)
            if self.access_hook is not None:
                self.access_hook("get", obj, name, value)
            return value
        if self.realm is not None:
            return self.realm.get_primitive_member(obj, name, self)
        return UNDEFINED

    def set_member(self, obj: Any, name: str, value: Any) -> None:
        if obj is UNDEFINED or obj is NULL:
            self.throw("TypeError",
                       f"can't set property {name!r} of "
                       f"{'undefined' if obj is UNDEFINED else 'null'}")
        if isinstance(obj, JSObject):
            if self.access_hook is not None:
                self.access_hook("set", obj, name, value)
            obj.set(name, value, self)

    def _assign_identifier(self, name: str, value: Any, scope: Scope) -> None:
        holder = scope.resolve(name)
        if holder is not None:
            if holder.constants is not None and name in holder.constants:
                self.throw("TypeError",
                           f"invalid assignment to const '{name}'")
            holder.variables[name] = value
            return
        if self.global_object is not None:
            # Sloppy-mode implicit global.
            self.global_object.set(name, value, self)
            return
        scope.declare(name, value)

    def apply_binary(self, op: str, left: Any, right: Any) -> Any:
        if op == "+":
            left_primitive = self._to_primitive(left)
            right_primitive = self._to_primitive(right)
            if isinstance(left_primitive, str) or isinstance(
                    right_primitive, str):
                return self.to_string(left_primitive) + self.to_string(
                    right_primitive)
            return self.to_number(left_primitive) + self.to_number(
                right_primitive)
        if op in ("-", "*", "/", "%", "**"):
            a, b = self.to_number(left), self.to_number(right)
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0:
                    if a == 0 or math.isnan(a):
                        return math.nan
                    return math.copysign(math.inf, a) * math.copysign(1.0, b)
                return a / b
            if op == "%":
                if b == 0 or math.isnan(a) or math.isnan(b):
                    return math.nan
                return math.fmod(a, b)
            return a ** b
        if op in ("<", ">", "<=", ">="):
            left_primitive = self._to_primitive(left)
            right_primitive = self._to_primitive(right)
            if isinstance(left_primitive, str) and isinstance(
                    right_primitive, str):
                pairs = {"<": left_primitive < right_primitive,
                         ">": left_primitive > right_primitive,
                         "<=": left_primitive <= right_primitive,
                         ">=": left_primitive >= right_primitive}
                return pairs[op]
            a, b = self.to_number(left_primitive), self.to_number(
                right_primitive)
            if math.isnan(a) or math.isnan(b):
                return False
            pairs = {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}
            return pairs[op]
        if op == "==":
            return js_equals(left, right)
        if op == "!=":
            return not js_equals(left, right)
        if op == "===":
            return js_strict_equals(left, right)
        if op == "!==":
            return not js_strict_equals(left, right)
        if op in ("&", "|", "^", "<<", ">>", ">>>"):
            a = _to_int32(self.to_number(left))
            b = _to_int32(self.to_number(right))
            shift = b & 31
            if op == "&":
                return float(a & b)
            if op == "|":
                return float(a | b)
            if op == "^":
                return float(a ^ b)
            if op == "<<":
                return float(_wrap_int32(a << shift))
            if op == ">>":
                return float(a >> shift)
            return float((a & 0xFFFFFFFF) >> shift)
        if op == "instanceof":
            if not isinstance(right, JSFunction):
                self.throw("TypeError",
                           "right-hand side of instanceof is not callable")
            prototype = right.get("prototype", self)
            if not isinstance(left, JSObject):
                return False
            return any(p is prototype for p in left.prototype_chain()
                       if p is not left) or (left.proto is prototype)
        if op == "in":
            if not isinstance(right, JSObject):
                self.throw("TypeError",
                           "right-hand side of 'in' is not an object")
            return right.has_property(self.to_string(left))
        raise NotImplementedError(f"binary operator {op}")

    # ------------------------------------------------------------------
    # Conversions that may invoke user toString
    # ------------------------------------------------------------------
    def _to_primitive(self, value: Any) -> Any:
        if isinstance(value, JSObject):
            return self.to_string(value)
        return value

    def to_string(self, value: Any) -> str:
        """ToString with object ``toString`` dispatch."""
        if isinstance(value, JSFunction):
            return value.to_source_string()
        if isinstance(value, JSArray):
            return ",".join(
                "" if (v is UNDEFINED or v is NULL) else self.to_string(v)
                for v in value.elements)
        if isinstance(value, JSObject):
            to_string = value.get("toString", self)
            if isinstance(to_string, JSFunction):
                result = to_string.call(self, value, [])
                if not isinstance(result, JSObject):
                    return self.to_string(result)
            return f"[object {value.class_name}]"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return format_number(float(value))
        if isinstance(value, str):
            return value
        if value is UNDEFINED:
            return "undefined"
        if value is NULL:
            return "null"
        raise TypeError(f"not a JS value: {value!r}")

    def to_number(self, value: Any) -> float:
        if isinstance(value, JSArray) and len(value.elements) == 1:
            return self.to_number(value.elements[0])
        if isinstance(value, JSObject) and not isinstance(value, JSArray):
            return to_number(self.to_string(value))
        return to_number(value)


def _to_int32(value: float) -> int:
    if math.isnan(value) or math.isinf(value):
        return 0
    return _wrap_int32(int(value))


def _wrap_int32(value: int) -> int:
    value &= 0xFFFFFFFF
    if value >= 0x80000000:
        value -= 0x100000000
    return value
