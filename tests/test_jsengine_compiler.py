"""Recorded expectations for the JS engine, checked case by case.

Every case runs a source in a fresh realm and compares everything a page
or an instrument can observe against ``tests/golden/jsengine_cases.json``:
final value, console output, thrown error (type, message, stack), the
**exact operation count** charged against the execution budget, and the
order of engine access-hook events (the stream the JS instrument
records). The
op-count pin matters because ``ExecutionBudgetExceeded`` must fire at the
same boundary, and the stack-trace pins matter because ``Error.stack`` is
the channel the paper's detectors use to spot OpenWPM's instrumentation.

The data was recorded from the tree-walking interpreter at commit
6ace467, the last commit with two backends. The recording step there
first ran every case under both the walker and the closure compiler
and asserted they agreed; the walker was then deleted, so its
behaviour is kept as data, not as a second engine. Re-recording
(``REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest
tests/test_jsengine_compiler.py -q``) records the compiler alone: do it
only for a deliberate change to what the engine shows a page, and
review the data diff case by case.
"""

import functools
import json
import os
import pathlib
import random

import pytest

from repro.jsengine.builtins import Realm
from repro.jsengine.interpreter import (
    ExecutionBudgetExceeded,
    Interpreter,
    Scope,
    ast_cache_stats,
    clear_ast_cache,
    export_cache_metrics,
    parse_cached,
    source_digest,
    warm_compile_cache,
)
from repro.jsobject.errors import JSError
from repro.jsobject.objects import JSObject

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "jsengine_cases.json")
URL = "differential.js"


def _plain(value):
    """JSON-shaped copy (tuples become lists), as the data file holds."""
    return json.loads(json.dumps(value))


def _observe(source, budget=200_000, hook=False):
    """Run *source* in a fresh realm; capture everything observable."""
    realm = Realm(random.Random(42))
    interp = Interpreter(realm=realm, budget=budget)
    events = []
    if hook:
        interp.access_hook = (
            lambda kind, obj, name, payload: events.append(
                (kind, name,
                 len(payload) if isinstance(payload, list) else None)))
    value, error = None, None
    try:
        value = interp.run(source, URL)
    except ExecutionBudgetExceeded as exc:
        error = ("budget", str(exc))
    except JSError as exc:
        # "Name: message", then the stack an uncaught page error shows.
        stack = exc.value.get("stack") \
            if isinstance(exc.value, JSObject) else None
        error = ("js", str(exc), interp.to_string(stack))
    if not isinstance(value, (float, str, bool, type(None))):
        value = type(value).__name__
    return _plain({"source": source_digest(source), "value": value,
                   "console": list(realm.console_log),
                   "ops": interp.ops_used, "error": error,
                   "events": events})


# ---------------------------------------------------------------------------
# Language coverage
# ---------------------------------------------------------------------------

SNIPPETS = [
    # arithmetic, coercion, numeric edge cases
    "1 + 2 * 3 - 4 / 2;",
    "'a' + 1 + 2;",
    "1/0 + ' ' + (-1/0) + ' ' + (0/0);",
    "console.log(5 % 3, -5 % 3, 5 % 0, 1e9 < NaN, NaN <= NaN); 'done';",
    "console.log(1 == '1', 1 === '1', null == undefined, "
    "null === undefined); 0;",
    "console.log(7 & 3, 7 | 8, 7 ^ 1, ~7, 1 << 4, -16 >> 2); 0;",
    # loops + break/continue
    """
    var t = 0;
    for (var i = 0; i < 50; i++) { if (i % 3 === 0) continue; t += i; }
    var j = 0;
    while (true) { j++; if (j > 5) break; }
    var k = 0;
    do { k += 2; } while (k < 9);
    console.log(t, j, k); t + j + k;
    """,
    # closures
    """
    function counter() { var n = 0; return function () { return ++n; }; }
    var c1 = counter(), c2 = counter();
    c1(); c1(); c2();
    console.log(c1(), c2()); 0;
    """,
    # hoisting quirks: shallow hoist, conditional var, fn re-declaration
    """
    console.log(typeof hoisted, typeof notHoisted);
    function hoisted() {}
    if (false) { var notHoisted = 1; }
    var x = 1;
    function f(flag) { if (flag) { var x = 2; } return x; }
    console.log(f(true), f(false), x); 0;
    """,
    # catch param hoists to nearest function scope (engine quirk)
    """
    function g() {
      try { throw new Error('inner'); } catch (e) { var seen = e.message; }
      return seen + '|' + typeof e;
    }
    console.log(g()); 0;
    """,
    # try/catch/finally incl. finally-without-catch swallow quirk
    """
    var order = [];
    try { order.push('t'); throw new Error('x'); }
    catch (e) { order.push('c:' + e.message); }
    finally { order.push('f'); }
    try { throw new Error('swallowed'); } finally { order.push('f2'); }
    console.log(order.join(',')); 0;
    """,
    # switch: fallthrough, default in the middle, let in cases
    """
    function pick(v) {
      var out = [];
      switch (v) {
        case 1: out.push('one');
        default: out.push('dflt');
        case 2: out.push('two'); break;
        case 3: out.push('three');
      }
      return out.join('+');
    }
    console.log(pick(1), pick(2), pick(3), pick(9)); 0;
    """,
    # for-in / for-of
    """
    var obj = {a: 1, b: 2, c: 3}, keys = [], vals = [];
    for (var k in obj) { keys.push(k); }
    for (var v of [10, 20, 30]) { vals.push(v); }
    console.log(keys.join(''), vals.join('-')); 0;
    """,
    # object literals: getters/setters, methods, string/number keys
    """
    var hits = [];
    var o = {
      n: 1, 'str key': 2, 7: 'seven',
      get twice() { hits.push('get'); return this.n * 2; },
      set twice(v) { hits.push('set'); this.n = v; },
      method() { return this.n + 100; }
    };
    o.twice = 21;
    console.log(o.twice, o['str key'], o[7], o.method(),
                hits.join(',')); 0;
    """,
    # prototypes, new, instanceof, in, delete
    """
    function Animal(name) { this.name = name; }
    Animal.prototype.speak = function () { return this.name + '!'; };
    var a = new Animal('rex');
    console.log(a.speak(), a instanceof Animal, 'name' in a,
                delete a.name, 'name' in a, delete (0, 1)); 0;
    """,
    # typeof on undeclared names never throws
    "console.log(typeof nope, typeof (void 0), typeof null, "
    "typeof function(){}); 0;",
    # implicit globals cross function boundaries
    """
    function setit() { leaked = 41; }
    setit();
    leaked++;
    console.log(leaked, typeof leaked); 0;
    """,
    # update/compound assignment incl. member targets + coercion
    """
    var n = '5';
    n++;
    var o = {v: '3'};
    o.v += 2;
    var arr = [1, 2];
    arr[0] *= 10;
    console.log(n, o.v, arr[0]); 0;
    """,
    # compound member assignment re-evaluates the object (engine quirk)
    """
    var calls = 0, box = {x: 1};
    function get() { calls++; return box; }
    get().x += 5;
    console.log(box.x, calls); 0;
    """,
    # const semantics incl. the for-in const quirk
    """
    var out = [];
    const C = 1;
    try { C = 2; } catch (e) { out.push('const:' + (typeof e)); }
    try { for (const q in {a: 1, b: 2}) { out.push(q); } }
    catch (e) { out.push('loop:' + (typeof e)); }
    console.log(out.join(',')); 0;
    """,
    # arguments object + arrow this
    """
    function spread() { return arguments.length + ':' + arguments[1]; }
    var obj = {
      tag: 'T',
      run: function () { var arrow = () => this.tag; return arrow(); }
    };
    console.log(spread(1, 2, 3), obj.run()); 0;
    """,
    # sequence, conditional, logical short-circuit with side effects
    """
    var log = [];
    function side(x) { log.push(x); return x; }
    var r = (side(1), side(2), 3);
    var s = side(0) || side(4);
    var t = side(5) && side(6);
    var u = side(7) ? side(8) : side(9);
    console.log(r, s, t, u, log.join('')); 0;
    """,
    # recursion
    """
    function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
    fib(12);
    """,
    # string/array builtins through the primitive dispatch fast path
    """
    var s = 'Hello, Frankenstein';
    console.log(s.length, s.charCodeAt(0), s.indexOf('Frank'),
                s.slice(0, 5), s.toUpperCase(),
                [3, 1, 2].sort().join(''), [1, 2, 3].map(function (x) {
                  return x * 2; }).join(',')); 0;
    """,
    # FunctionDeclaration re-execution yields fresh function objects
    """
    var fns = [];
    for (var i = 0; i < 2; i++) {
      function tick() { return i; }
      fns.push(tick);
    }
    console.log(fns[0] === fns[1]); 0;
    """,
    # nested function compiled inside program + block-scoped let
    """
    let total = 0;
    { let total2 = 5; total += total2; }
    function adder(a) { return function (b) { return a + b; }; }
    console.log(adder(2)(3), total); 0;
    """,
]


STACK_SRC = """
function inner() { throw new Error('boom'); }
function outer() { inner(); }
try { outer(); } catch (e) { console.log(e.stack); }
'after';
"""
STACK_TEXT = ("inner@differential.js:2:36\n"
              "outer@differential.js:3:20\n"
              "<global>@differential.js:4:7")

RECURSION_SRC = """
function r() { return r(); }
try { r(); } catch (e) { console.log('caught:' + e.message); }
'ok';
"""

HOOK_SRC = """
var o = {x: 1, probe: function () { return this.x; }};
o.x;
o.x = 2;
o.probe();
o['x']++;
o.x += 3;
"""

BOUNDARY_SRC = """
var total = 0;
for (var i = 0; i < 25; i++) { total += i * 2; }
total;
"""

# The budget error is not a JSError: user catch blocks must not
# swallow it.
CATCH_BUDGET_SRC = """
try { while (true) {} } catch (e) { 'swallowed'; }
"""

# Instrument injection (``BrowserWindow.run_script_with_scope``) runs a
# script in a caller-owned scope after the page's own script, on the
# page script's budget.
INSTRUMENT_SRC = """
var planted = 7;
function helper() { return planted * 2; }
function probe() { throw new Error('probe'); }
var trace;
try { probe(); } catch (e) { trace = e.stack; }
console.log(trace);
"""


def _observe_in_scope():
    realm = Realm(random.Random(42))
    interp = Interpreter(realm=realm, budget=200_000)
    interp.run(BOUNDARY_SRC, URL)
    ops_before = interp.ops_used
    scope = Scope(function_scope=True)
    returned = interp.run_program_in_scope(
        parse_cached(INSTRUMENT_SRC), scope, "instrument.js",
        realm.global_object)
    assert returned is scope
    ops = interp.ops_used
    helper = interp.call_function(scope.variables["helper"])
    return _plain({"source": source_digest(INSTRUMENT_SRC),
                   "console": list(realm.console_log),
                   "ops_before": ops_before, "ops": ops,
                   "bindings": sorted(scope.variables), "helper": helper})


def _random_program(rng):
    parts = ["var acc = 0;"]
    for index in range(rng.randint(2, 5)):
        kind = rng.randint(0, 3)
        if kind == 0:
            parts.append(
                f"for (var i{index} = 0; i{index} < {rng.randint(1, 9)}; "
                f"i{index}++) {{ acc += i{index} * {rng.randint(1, 5)}; }}")
        elif kind == 1:
            parts.append(
                f"function fn{index}(a) {{ return a % {rng.randint(2, 7)} "
                f"=== 0 ? a : -a; }} acc += fn{index}({rng.randint(0, 50)});")
        elif kind == 2:
            parts.append(
                f"var o{index} = {{v: {rng.randint(0, 9)}}}; "
                f"o{index}.v += {rng.randint(1, 4)}; acc += o{index}.v;")
        else:
            parts.append(
                f"try {{ if (acc > {rng.randint(0, 40)}) "
                f"throw new Error('e{index}'); acc += 1; }} "
                f"catch (e) {{ acc -= 1; }}")
    parts.append("acc;")
    return "\n".join(parts)


#: case id -> zero-argument observation; one entry each in the data file.
CASES = {f"snippet{index}": functools.partial(_observe, source)
         for index, source in enumerate(SNIPPETS)}
CASES.update({
    "stack_trace": functools.partial(_observe, STACK_SRC),
    "uncaught_error": functools.partial(_observe, "null.property;"),
    "too_much_recursion": functools.partial(_observe, RECURSION_SRC),
    "access_hook_order": functools.partial(_observe, HOOK_SRC, hook=True),
    "budget_boundary": functools.partial(_observe, BOUNDARY_SRC),
    "budget_through_catch": functools.partial(
        _observe, CATCH_BUDGET_SRC, budget=500),
    "run_program_in_scope": _observe_in_scope,
})
CASES.update({f"random{seed}": functools.partial(
    _observe, _random_program(random.Random(seed))) for seed in range(12)})


def observe(case_id):
    clear_ast_cache()
    return CASES[case_id]()


@pytest.fixture(scope="module")
def expected():
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_PATH.write_text(
            json.dumps({case_id: observe(case_id) for case_id in CASES},
                       indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_recorded(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("index", range(len(SNIPPETS)),
                         ids=[f"snippet{i}" for i in range(len(SNIPPETS))])
def test_backends_agree(index, expected):
    assert observe(f"snippet{index}") == expected[f"snippet{index}"]


# ---------------------------------------------------------------------------
# Thrown errors and stack traces
# ---------------------------------------------------------------------------

def test_stack_traces_identical(expected):
    result = observe("stack_trace")
    assert result == expected["stack_trace"]
    # Line/column parity: the stack is built from the frame positions
    # the per-node ticks maintain, so any tick divergence shows here.
    assert result["console"] == [STACK_TEXT]
    assert result["value"] == "after"


def test_uncaught_error_identical(expected):
    result = observe("uncaught_error")
    assert result == expected["uncaught_error"]
    assert result["error"][0] == "js"


def test_too_much_recursion_identical(expected):
    result = observe("too_much_recursion")
    assert result == expected["too_much_recursion"]
    assert "recursion" in result["console"][0]


def test_access_hook_order_identical(expected):
    result = observe("access_hook_order")
    assert result == expected["access_hook_order"]
    kinds = [kind for kind, _, _ in result["events"]]
    assert "get" in kinds and "set" in kinds and "call" in kinds


def test_run_program_in_scope_identical(expected):
    result = observe("run_program_in_scope")
    assert result == expected["run_program_in_scope"]
    # The scope keeps the script's bindings for the host to plant
    # helpers in (the catch parameter hoists there too).
    assert {"planted", "helper", "probe", "trace"} <= set(result["bindings"])
    assert result["helper"] == 14.0
    # The countdown continues from the page script instead of resetting.
    assert result["ops"] > result["ops_before"] > 0
    assert "<instrument>" in result["console"][0]


# ---------------------------------------------------------------------------
# Budget boundary: ExecutionBudgetExceeded at the exact same op count
# ---------------------------------------------------------------------------

def test_budget_boundary_identical_across_backends(expected):
    result = observe("budget_boundary")
    assert result == expected["budget_boundary"]
    ops = result["ops"]
    assert ops > 50
    clear_ast_cache()
    # Exactly enough budget: completes.
    assert _observe(BOUNDARY_SRC, budget=ops)["error"] is None
    # One op short: the countdown must trip.
    short = _observe(BOUNDARY_SRC, budget=ops - 1)
    assert short["error"][0] == "budget"


def test_budget_error_propagates_through_catch(expected):
    result = observe("budget_through_catch")
    assert result == expected["budget_through_catch"]
    assert result["error"][0] == "budget"


# ---------------------------------------------------------------------------
# Hash-keyed AST LRU cache
# ---------------------------------------------------------------------------

def test_ast_cache_counts_hits_and_misses():
    clear_ast_cache()
    base = ast_cache_stats()
    assert base["entries"] == 0
    realm = Realm(random.Random(1))
    interp = Interpreter(realm=realm, budget=10_000)
    interp.run("1 + 1;", URL)
    interp.run("1 + 1;", URL)
    interp.run("2 + 2;", URL)
    stats = ast_cache_stats()
    assert stats["misses"] == 2
    assert stats["hits"] == 1
    assert stats["entries"] == 2


def test_ast_cache_keyed_by_content_hash():
    clear_ast_cache()
    digest = warm_compile_cache("var q = 9; q;")
    assert digest == source_digest("var q = 9; q;")
    # Same content from a "different" call site is a hit, not a reparse.
    realm = Realm(random.Random(2))
    Interpreter(realm=realm, budget=10_000).run("var q = 9; q;", "other.js")
    assert ast_cache_stats()["hits"] == 1


def test_ast_cache_evicts_lru():
    from repro.jsengine.interpreter import _AST_CACHE

    clear_ast_cache()
    max_entries = _AST_CACHE._max
    try:
        _AST_CACHE._max = 2
        warm_compile_cache("1;")
        warm_compile_cache("2;")
        warm_compile_cache("1;")      # refresh: "1;" is now most recent
        warm_compile_cache("3;")      # evicts "2;"
        stats = ast_cache_stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        warm_compile_cache("1;")      # still cached
        assert ast_cache_stats()["hits"] == 2
        warm_compile_cache("2;")      # was evicted: a miss
        assert ast_cache_stats()["misses"] == 4
    finally:
        _AST_CACHE._max = max_entries
        clear_ast_cache()


def test_cache_metrics_exported_through_registry():
    from repro.obs.metrics import MetricsRegistry

    clear_ast_cache()
    warm_compile_cache("var metric = 1;")
    warm_compile_cache("var metric = 1;")
    registry = MetricsRegistry()
    export_cache_metrics(registry)
    snapshot = {m["name"]: m for m in registry.snapshot()}
    assert snapshot["jsengine_ast_cache_misses"]["value"] == 1.0
    assert snapshot["jsengine_ast_cache_hits"]["value"] == 1.0
    assert snapshot["jsengine_ast_cache_entries"]["value"] == 1.0


def test_compiled_unit_attached_to_cached_program():
    clear_ast_cache()
    warm_compile_cache("var attach = 1; attach;")
    program = parse_cached("var attach = 1; attach;")
    assert getattr(program, "_compiled_unit", None) is not None


# ---------------------------------------------------------------------------
# Seeded random composites over the covered grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_random_programs_agree(seed, expected):
    assert observe(f"random{seed}") == expected[f"random{seed}"]
