"""Closure compiler: the JS engine's execution backend.

A one-time pass lowers each :class:`ast.Program` into a tree of Python
closures: every node becomes a specialized ``fn(rt, scope) -> value``
(``rt`` is the executing :class:`Interpreter`; closures are cached
process-wide on the AST nodes and shared across realms, so they must not
close over an interpreter). Constants are folded at compile time,
statically safe identifier lookups are pre-resolved to a parent-hop
count, operator dispatch happens once per node instead of once per
execution, and loop bodies are compiled once instead of re-dispatched
per iteration.

Every closure starts with the same inline "tick": it charges one op
against the execution budget and moves the current frame's line/column
to its node, which is what ``Error.stack`` reports (the channel the
paper uses to detect OpenWPM's wrappers). The *exact* op counts, stack
positions and order of engine ``access_hook`` events are observable, and
``tests/golden/jsengine_cases.json`` pins them case by case as recorded
from the tree-walking interpreter this backend replaced. The closures
keep that engine's quirks on purpose: a var is hoisted only when the
runtime scope chain misses it, catch params hoist to the nearest
function scope, an update or compound member assignment evaluates its
object and key twice (once to read, once to write), and neither a catch
block's own node nor an update/compound target's read is ticked.

Identifier pre-resolution is conservative: a lookup compiles to a direct
``scope.parent...variables[name]`` access only when the binding is
guaranteed present from scope entry (function params, ``arguments``,
direct function declarations, top-level program vars) and no
intervening scope could *ever* declare the same name (tracked through a
compile-time static-scope chain mirroring the runtime one). Anything
else keeps the full runtime scope walk, which is what keeps the
compiled lookups safe against runtime-conditional hoisting.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.jsengine import ast_nodes as ast
from repro.jsengine.interpreter import (
    Frame,
    Scope,
    ScriptFunction,
    _Break,
    _Continue,
    _Return,
)
from repro.jsobject.descriptors import PropertyDescriptor
from repro.jsobject.errors import JSError
from repro.jsobject.functions import JSFunction
from repro.jsobject.objects import JSArray, JSObject
from repro.jsobject.values import (
    NULL,
    UNDEFINED,
    js_equals,
    js_strict_equals,
    js_truthy,
    js_typeof,
)

_MISSING = object()
_math_nan = math.nan
_math_fmod = math.fmod


# ---------------------------------------------------------------------------
# Compiled units
# ---------------------------------------------------------------------------

def _run_hoist(plan: Tuple, rt: Any, scope: Scope) -> None:
    """Execute a precomputed hoist plan in statement order: bind a
    fresh function per declaration, declare var names as ``undefined``.

    The var guard is runtime-conditional on purpose: a var name is
    declared only when ``scope.resolve`` misses, and resolution depends
    on the live closure chain.
    """
    for is_fn, payload, name in plan:
        if is_fn:
            scope.declare(name, ScriptFunction(payload, scope, rt))
        elif scope.resolve(name) is None:
            scope.declare(name, UNDEFINED)


class CompiledProgram:
    """A compiled top-level program; cached on the ``Program`` node."""

    __slots__ = ("hoist_plan", "statements")

    def __init__(self, hoist_plan: Tuple, statements: Tuple) -> None:
        self.hoist_plan = hoist_plan
        self.statements = statements

    def run(self, rt: Any, script_url: str) -> Any:
        # A fresh global scope under a ``<global>`` frame; every program
        # run resets the budget countdown.
        previous_url = rt.current_script_url
        rt.current_script_url = script_url
        rt._ops_left = rt.budget
        scope = Scope(function_scope=True)
        rt.push_frame(Frame("<global>", script_url))
        previous_this = rt.current_this
        rt.current_this = rt.global_object
        result: Any = UNDEFINED
        try:
            if self.hoist_plan:
                _run_hoist(self.hoist_plan, rt, scope)
            for statement in self.statements:
                result = statement(rt, scope)
        finally:
            rt.current_this = previous_this
            rt.pop_frame()
            rt.current_script_url = previous_url
        return result

    def run_in_scope(self, rt: Any, scope: Scope) -> Any:
        """Body of ``Interpreter.run_program_in_scope`` (caller manages
        frame/url/this and does not reset the budget)."""
        if self.hoist_plan:
            _run_hoist(self.hoist_plan, rt, scope)
        result: Any = UNDEFINED
        for statement in self.statements:
            result = statement(rt, scope)
        return result


class CompiledFunction:
    """A compiled function body; cached on the ``FunctionExpression``.

    One plan serves every ``ScriptFunction`` sharing the node (the four
    instrumentation wrapper templates are process-wide nodes backing
    thousands of wrappers).
    """

    __slots__ = ("params", "hoist_plan", "statements", "is_arrow",
                 "line", "column")

    def __init__(self, params: Tuple[str, ...], hoist_plan: Tuple,
                 statements: Tuple, is_arrow: bool,
                 line: int, column: int) -> None:
        self.params = params
        self.hoist_plan = hoist_plan
        self.statements = statements
        self.is_arrow = is_arrow
        self.line = line
        self.column = column

    def call(self, fn: ScriptFunction, rt: Any, this: Any,
             args: List[Any]) -> Any:
        # Params and (for non-arrows) ``arguments`` bind in a fresh
        # function scope; arrows keep the ``this`` they captured.
        scope = Scope(parent=fn.closure, function_scope=True)
        variables = scope.variables
        nargs = len(args)
        for index, param in enumerate(self.params):
            variables[param] = args[index] if index < nargs else UNDEFINED
        is_arrow = self.is_arrow
        if not is_arrow:
            variables["arguments"] = JSArray(
                list(args), proto=rt.realm.array_prototype
                if rt.realm else None)
        effective_this = fn.captured_this if is_arrow else this
        rt.push_frame(Frame(fn.function_name or "<anonymous>",
                            fn.script_url, self.line, self.column))
        previous_this = rt.current_this
        rt.current_this = effective_this
        try:
            if self.hoist_plan:
                _run_hoist(self.hoist_plan, rt, scope)
            for statement in self.statements:
                statement(rt, scope)
        except _Return as ret:
            return ret.value
        finally:
            rt.current_this = previous_this
            rt.pop_frame()
        return UNDEFINED


# ---------------------------------------------------------------------------
# Static scope analysis
# ---------------------------------------------------------------------------

class _StaticScope:
    """Compile-time mirror of one runtime :class:`Scope`.

    ``always`` holds names guaranteed bound from scope entry onward;
    ``maybe`` every name that could ever be bound in the scope;
    ``consts`` names that may be const-declared here. ``opaque`` marks
    the unknown parent chain of a standalone-compiled function (e.g. the
    instrumentation wrapper templates, whose closures are host-built).
    """

    __slots__ = ("parent", "function_scope", "opaque",
                 "always", "maybe", "consts")

    def __init__(self, parent: Optional["_StaticScope"],
                 function_scope: bool = False,
                 opaque: bool = False) -> None:
        self.parent = parent
        self.function_scope = function_scope
        self.opaque = opaque
        self.always: set = set()
        self.maybe: set = set()
        self.consts: set = set()


def _collect_scoped_names(body: List[ast.Node], out: set) -> None:
    """Names that executing *body* may declare into the enclosing
    function scope: vars at any block depth, function declarations at
    any depth (block-level hoisting targets the nearest function scope),
    for-in var loop variables, and catch params (``catch_scope.declare``
    uses kind 'var', which hoists past the non-function catch scope).
    Does not descend into nested functions."""
    for statement in body:
        kind = type(statement)
        if kind is ast.VariableDeclaration:
            if statement.kind == "var":
                out.update(name for name, _ in statement.declarations)
        elif kind is ast.FunctionDeclaration:
            out.add(statement.function.name)
        elif kind is ast.BlockStatement:
            _collect_scoped_names(statement.body, out)
        elif kind is ast.IfStatement:
            _collect_scoped_names([statement.consequent], out)
            if statement.alternate is not None:
                _collect_scoped_names([statement.alternate], out)
        elif kind in (ast.WhileStatement, ast.DoWhileStatement):
            _collect_scoped_names([statement.body], out)
        elif kind is ast.ForStatement:
            if statement.init is not None:
                _collect_scoped_names([statement.init], out)
            _collect_scoped_names([statement.body], out)
        elif kind is ast.ForInStatement:
            if statement.kind == "var":
                out.add(statement.name)
            _collect_scoped_names([statement.body], out)
        elif kind is ast.TryStatement:
            _collect_scoped_names(statement.block.body, out)
            if statement.catch_param:
                out.add(statement.catch_param)
            if statement.catch_block is not None:
                _collect_scoped_names(statement.catch_block.body, out)
            if statement.finally_block is not None:
                _collect_scoped_names(statement.finally_block.body, out)
        elif kind is ast.SwitchStatement:
            for case in statement.cases:
                _collect_scoped_names(case.body, out)


def _direct_lets(body: List[ast.Node]) -> Tuple[set, set]:
    """let/const names declared by *body*'s own statement list (they
    bind into the current scope when the statement executes)."""
    lets: set = set()
    consts: set = set()
    for statement in body:
        if type(statement) is ast.VariableDeclaration \
                and statement.kind in ("let", "const"):
            names = [name for name, _ in statement.declarations]
            lets.update(names)
            if statement.kind == "const":
                consts.update(names)
    return lets, consts


def _function_static_scope(parent: Optional[_StaticScope],
                           body: List[ast.Node],
                           params: Optional[List[str]] = None,
                           is_arrow: bool = False,
                           is_root: bool = False) -> _StaticScope:
    scope = _StaticScope(parent, function_scope=True)
    always = scope.always
    if params is not None:
        always.update(params)
        if not is_arrow:
            always.add("arguments")
    direct_vars: set = set()
    for statement in body:
        if type(statement) is ast.FunctionDeclaration:
            always.add(statement.function.name)
        elif type(statement) is ast.VariableDeclaration \
                and statement.kind == "var":
            direct_vars.update(name for name, _ in statement.declarations)
    if is_root:
        # A program scope has no parent, so its hoist pass declares
        # every direct var unconditionally. Inside a function the var
        # guard consults the live closure chain — conditional, so those
        # names stay in ``maybe`` only.
        always.update(direct_vars)
    deep: set = set()
    _collect_scoped_names(body, deep)
    lets, consts = _direct_lets(body)
    scope.maybe = always | direct_vars | deep | lets
    scope.consts = consts
    return scope


def _block_static_scope(parent: _StaticScope,
                        body: List[ast.Node]) -> _StaticScope:
    # Block hoisting (functions and the var guard) targets the nearest
    # *function* scope, so a block scope only ever gains let/const
    # bindings, and only as its statements execute.
    scope = _StaticScope(parent)
    scope.maybe, scope.consts = _direct_lets(body)
    return scope


def _resolve_static(scope: _StaticScope, name: str,
                    for_write: bool = False) -> Optional[int]:
    """Parent-hop count to a binding guaranteed present for the whole
    lifetime of every enclosing scope, or None to use the runtime walk."""
    hops = 0
    current: Optional[_StaticScope] = scope
    while current is not None:
        if current.opaque:
            return None
        if name in current.always:
            if for_write and name in current.consts:
                return None
            return hops
        if name in current.maybe:
            return None
        current = current.parent
        hops += 1
    return None


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

def compile_program(program: ast.Program) -> CompiledProgram:
    """Compile (and cache on the node) a top-level program."""
    unit = getattr(program, "_compiled_unit", None)
    if unit is not None:
        return unit
    root = _function_static_scope(None, program.body, is_root=True)
    compiler = _Compiler(root)
    hoist_plan = compiler._hoist_plan(program.body)
    statements = tuple(compiler._stmt(s) for s in program.body)
    unit = CompiledProgram(hoist_plan, statements)
    program._compiled_unit = unit
    return unit


def compile_function(node: ast.FunctionExpression) -> CompiledFunction:
    """Compile a standalone function node (unknown closure chain)."""
    plan = getattr(node, "_compiled_plan", None)
    if plan is not None:
        return plan
    opaque = _StaticScope(None, opaque=True)
    return _compile_function_node(node, opaque)


def _compile_function_node(node: ast.FunctionExpression,
                           parent: _StaticScope) -> CompiledFunction:
    plan = getattr(node, "_compiled_plan", None)
    if plan is not None:
        return plan
    scope = _function_static_scope(parent, node.body, params=node.params,
                                   is_arrow=node.is_arrow)
    compiler = _Compiler(scope)
    hoist_plan = compiler._hoist_plan(node.body)
    statements = tuple(compiler._stmt(s) for s in node.body)
    plan = CompiledFunction(tuple(node.params), hoist_plan, statements,
                            node.is_arrow, node.line, node.column)
    node._compiled_plan = plan
    return plan


class _Compiler:
    """Compiles one lexical region; ``self.scope`` tracks the static
    scope chain mirroring the runtime scopes the compiled code creates."""

    def __init__(self, scope: _StaticScope) -> None:
        self.scope = scope

    # -- dispatch ----------------------------------------------------------
    def _stmt(self, node: ast.Node):
        method = _STMT.get(type(node))
        if method is None:
            raise NotImplementedError(
                f"no executor for {type(node).__name__}")
        return method(self, node)

    def _expr(self, node: ast.Node):
        method = _EXPR.get(type(node))
        if method is None:
            raise NotImplementedError(
                f"no evaluator for {type(node).__name__}")
        return method(self, node)

    def _hoist_plan(self, body: List[ast.Node]) -> Tuple:
        plan = []
        for statement in body:
            if isinstance(statement, ast.FunctionDeclaration):
                _compile_function_node(statement.function, self.scope)
                plan.append((True, statement.function,
                             statement.function.name))
            elif isinstance(statement, ast.VariableDeclaration) \
                    and statement.kind == "var":
                for name, _ in statement.declarations:
                    plan.append((False, None, name))
        return tuple(plan)

    # -- statements --------------------------------------------------------
    def _c_ExpressionStatement(self, node: ast.ExpressionStatement):
        expression = self._expr(node.expression)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            return expression(rt, scope)
        return run

    def _c_VariableDeclaration(self, node: ast.VariableDeclaration):
        kind = node.kind
        declarations = tuple(
            (name, self._expr(init) if init is not None else None)
            for name, init in node.declarations)
        line, column = node.line, node.column

        if kind == "var" and len(declarations) == 1 \
                and self.scope.function_scope:
            # The overwhelmingly common case: one var declared directly
            # in a function/program scope — the nearest function scope
            # is the current scope itself.
            name, init = declarations[0]

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                scope.variables[name] = init(rt, scope) \
                    if init is not None else UNDEFINED
                return UNDEFINED
            return run

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            for name, init in declarations:
                value = init(rt, scope) if init is not None else UNDEFINED
                scope.declare(name, value, kind)
            return UNDEFINED
        return run

    def _c_FunctionDeclaration(self, node: ast.FunctionDeclaration):
        fn_node = node.function
        name = fn_node.name
        _compile_function_node(fn_node, self.scope)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            # Re-declare on execution: each run binds a fresh function
            # object in place of the hoisted one.
            scope.declare(name, ScriptFunction(fn_node, scope, rt))
            return UNDEFINED
        return run

    def _c_BlockStatement(self, node: ast.BlockStatement, tick: bool = True):
        outer = self.scope
        self.scope = _block_static_scope(outer, node.body)
        try:
            hoist_plan = self._hoist_plan(node.body)
            statements = tuple(self._stmt(s) for s in node.body)
        finally:
            self.scope = outer
        line, column = node.line, node.column

        if not tick:
            # A catch block's own node is not ticked; only its
            # statements charge ops and move the frame position.
            def run_no_tick(rt, scope):
                inner = Scope(parent=scope)
                if hoist_plan:
                    _run_hoist(hoist_plan, rt, inner)
                result = UNDEFINED
                for statement in statements:
                    result = statement(rt, inner)
                return result
            return run_no_tick

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            inner = Scope(parent=scope)
            if hoist_plan:
                _run_hoist(hoist_plan, rt, inner)
            result = UNDEFINED
            for statement in statements:
                result = statement(rt, inner)
            return result
        return run

    def _c_IfStatement(self, node: ast.IfStatement):
        test = self._expr(node.test)
        consequent = self._stmt(node.consequent)
        alternate = self._stmt(node.alternate) \
            if node.alternate is not None else None
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            if js_truthy(test(rt, scope)):
                return consequent(rt, scope)
            if alternate is not None:
                return alternate(rt, scope)
            return UNDEFINED
        return run

    def _c_WhileStatement(self, node: ast.WhileStatement):
        test = self._expr(node.test)
        body = self._stmt(node.body)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            while js_truthy(test(rt, scope)):
                try:
                    body(rt, scope)
                except _Break:
                    break
                except _Continue:
                    continue
            return UNDEFINED
        return run

    def _c_DoWhileStatement(self, node: ast.DoWhileStatement):
        body = self._stmt(node.body)
        test = self._expr(node.test)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            while True:
                try:
                    body(rt, scope)
                except _Break:
                    break
                except _Continue:
                    pass
                if not js_truthy(test(rt, scope)):
                    break
            return UNDEFINED
        return run

    def _c_ForStatement(self, node: ast.ForStatement):
        outer = self.scope
        init_body = [node.init] if node.init is not None else []
        loop_static = _StaticScope(outer)
        loop_static.maybe, loop_static.consts = _direct_lets(init_body)
        self.scope = loop_static
        try:
            init = self._stmt(node.init) if node.init is not None else None
            test = self._expr(node.test) if node.test is not None else None
            update = self._expr(node.update) \
                if node.update is not None else None
            body = self._stmt(node.body)
        finally:
            self.scope = outer
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            loop_scope = Scope(parent=scope)
            if init is not None:
                init(rt, loop_scope)
            while test is None or js_truthy(test(rt, loop_scope)):
                try:
                    body(rt, loop_scope)
                except _Break:
                    break
                except _Continue:
                    pass
                if update is not None:
                    update(rt, loop_scope)
            return UNDEFINED
        return run

    def _c_ForInStatement(self, node: ast.ForInStatement):
        outer = self.scope
        loop_static = _StaticScope(outer)
        if node.kind in ("let", "const"):
            loop_static.maybe = {node.name}
            if node.kind == "const":
                loop_static.consts = {node.name}
        self.scope = loop_static
        try:
            target = self._expr(node.object)
            body = self._stmt(node.body)
        finally:
            self.scope = outer
        kind = node.kind
        name = node.name
        of = node.of
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            loop_scope = Scope(parent=scope)
            obj = target(rt, loop_scope)
            if kind:
                loop_scope.declare(name, UNDEFINED, kind)
            items = rt._iterate_values(obj) if of else rt._iterate_keys(obj)
            for item in items:
                rt._assign_identifier(name, item, loop_scope)
                try:
                    body(rt, loop_scope)
                except _Break:
                    break
                except _Continue:
                    continue
            return UNDEFINED
        return run

    def _c_ReturnStatement(self, node: ast.ReturnStatement):
        argument = self._expr(node.argument) \
            if node.argument is not None else None
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            raise _Return(argument(rt, scope)
                          if argument is not None else UNDEFINED)
        return run

    def _c_BreakStatement(self, node: ast.BreakStatement):
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            raise _Break()
        return run

    def _c_ContinueStatement(self, node: ast.ContinueStatement):
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            raise _Continue()
        return run

    def _c_ThrowStatement(self, node: ast.ThrowStatement):
        argument = self._expr(node.argument)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            raise JSError(argument(rt, scope))
        return run

    def _c_TryStatement(self, node: ast.TryStatement):
        block = self._stmt(node.block)
        catch_block = None
        if node.catch_block is not None:
            outer = self.scope
            # The runtime catch scope never holds bindings itself: the
            # param declare (kind 'var') hoists past it to the nearest
            # function scope. It still occupies one hop in the chain.
            self.scope = _StaticScope(outer)
            try:
                catch_block = self._c_BlockStatement(node.catch_block,
                                                     tick=False)
            finally:
                self.scope = outer
        finally_block = self._stmt(node.finally_block) \
            if node.finally_block is not None else None
        catch_param = node.catch_param
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            try:
                block(rt, scope)
            except JSError as exc:
                if catch_block is not None:
                    catch_scope = Scope(parent=scope)
                    if catch_param:
                        catch_scope.declare(catch_param, exc.value)
                    catch_block(rt, catch_scope)
            finally:
                if finally_block is not None:
                    finally_block(rt, scope)
            return UNDEFINED
        return run

    def _c_SwitchStatement(self, node: ast.SwitchStatement):
        discriminant = self._expr(node.discriminant)
        outer = self.scope
        switch_static = _StaticScope(outer)
        lets: set = set()
        consts: set = set()
        for case in node.cases:
            case_lets, case_consts = _direct_lets(case.body)
            lets |= case_lets
            consts |= case_consts
        switch_static.maybe = lets
        switch_static.consts = consts
        self.scope = switch_static
        try:
            cases = tuple(
                (self._expr(case.test) if case.test is not None else None,
                 tuple(self._stmt(s) for s in case.body))
                for case in node.cases)
        finally:
            self.scope = outer
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            value = discriminant(rt, scope)
            switch_scope = Scope(parent=scope)
            start_index = None
            default_index = None
            for index, (test, _) in enumerate(cases):
                if test is None:
                    default_index = index
                    continue
                if js_strict_equals(value, test(rt, switch_scope)):
                    start_index = index
                    break
            if start_index is None:
                start_index = default_index
            if start_index is None:
                return UNDEFINED
            try:
                for _, body in cases[start_index:]:
                    for statement in body:
                        statement(rt, switch_scope)
            except _Break:
                pass
            return UNDEFINED
        return run

    def _c_EmptyStatement(self, node: ast.EmptyStatement):
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            return UNDEFINED
        return run

    # -- expressions -------------------------------------------------------
    def _c_constant(self, node: ast.Node, value: Any):
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            return value
        return run

    def _c_NumberLiteral(self, node: ast.NumberLiteral):
        return self._c_constant(node, node.value)

    def _c_StringLiteral(self, node: ast.StringLiteral):
        return self._c_constant(node, node.value)

    def _c_BooleanLiteral(self, node: ast.BooleanLiteral):
        return self._c_constant(node, node.value)

    def _c_NullLiteral(self, node: ast.NullLiteral):
        return self._c_constant(node, NULL)

    def _c_UndefinedLiteral(self, node: ast.UndefinedLiteral):
        return self._c_constant(node, UNDEFINED)

    def _c_ThisExpression(self, node: ast.ThisExpression):
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            this = rt.current_this
            if this is UNDEFINED or this is None:
                global_object = rt.global_object
                return global_object if global_object is not None \
                    else UNDEFINED
            return this
        return run

    def _c_Identifier(self, node: ast.Identifier):
        name = node.name
        line, column = node.line, node.column
        hops = _resolve_static(self.scope, name)

        if hops == 0:
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                return scope.variables[name]
            return run

        if hops == 1:
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                return scope.parent.variables[name]
            return run

        if hops is not None:
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                holder = scope
                for _ in range(hops):
                    holder = holder.parent
                return holder.variables[name]
            return run

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            holder = scope
            while holder is not None:
                value = holder.variables.get(name, _MISSING)
                if value is not _MISSING:
                    return value
                holder = holder.parent
            global_object = rt.global_object
            if global_object is not None \
                    and global_object.has_property(name):
                return global_object.get(name, rt)
            rt.throw("ReferenceError", f"{name} is not defined")
        return run

    def _c_ArrayLiteral(self, node: ast.ArrayLiteral):
        elements = tuple(self._expr(e) for e in node.elements)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            realm = rt.realm
            return JSArray([element(rt, scope) for element in elements],
                           proto=realm.array_prototype if realm else None)
        return run

    def _c_ObjectLiteral(self, node: ast.ObjectLiteral):
        entries = tuple((key, self._expr(value))
                        for key, value in node.entries)
        accessors = tuple(node.accessors)
        for _, _, fn_node in accessors:
            _compile_function_node(fn_node, self.scope)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            realm = rt.realm
            obj = JSObject(proto=realm.object_prototype if realm else None)
            for key, value in entries:
                obj.put(key, value(rt, scope))
            for key, accessor_kind, fn_node in accessors:
                fn = ScriptFunction(fn_node, scope, rt)
                existing = obj.get_own_descriptor(key)
                if existing is not None and existing.is_accessor:
                    descriptor = existing
                else:
                    descriptor = PropertyDescriptor.accessor()
                    obj.properties[key] = descriptor
                if accessor_kind == "get":
                    descriptor.get = fn
                else:
                    descriptor.set = fn
            return obj
        return run

    def _c_FunctionExpression(self, node: ast.FunctionExpression):
        _compile_function_node(node, self.scope)
        is_arrow = node.is_arrow
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            captured = rt.current_this if is_arrow else None
            return ScriptFunction(node, scope, rt, captured_this=captured)
        return run

    def _c_MemberExpression(self, node: ast.MemberExpression):
        target = self._expr(node.object)
        line, column = node.line, node.column

        if not node.computed:
            name = node.property

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                obj = target(rt, scope)
                if isinstance(obj, JSObject):
                    value = obj.get(name, rt)
                    hook = rt.access_hook
                    if hook is not None:
                        hook("get", obj, name, value)
                    return value
                return rt.get_member(obj, name)
            return run

        prop = self._expr(node.property)

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            obj = target(rt, scope)
            key = prop(rt, scope)
            name = key if type(key) is str else rt.to_string(key)
            if isinstance(obj, JSObject):
                value = obj.get(name, rt)
                hook = rt.access_hook
                if hook is not None:
                    hook("get", obj, name, value)
                return value
            return rt.get_member(obj, name)
        return run

    def _c_CallExpression(self, node: ast.CallExpression):
        arguments = tuple(self._expr(a) for a in node.arguments)
        line, column = node.line, node.column

        if isinstance(node.callee, ast.MemberExpression):
            callee = node.callee
            target = self._expr(callee.object)
            computed = callee.computed
            prop = self._expr(callee.property) if computed else None
            static_name = None if computed else callee.property

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                this = target(rt, scope)
                if computed:
                    key = prop(rt, scope)
                    name = key if type(key) is str else rt.to_string(key)
                else:
                    name = static_name
                if isinstance(this, JSObject):
                    fn = this.get(name, rt)
                    hook = rt.access_hook
                    if hook is not None:
                        hook("get", this, name, fn)
                else:
                    fn = rt.get_member(this, name)
                if not isinstance(fn, JSFunction):
                    rt.throw("TypeError", f"{name} is not a function")
                args = [argument(rt, scope) for argument in arguments]
                hook = rt.access_hook
                if hook is not None and isinstance(this, JSObject):
                    hook("call", this, name, args)
                return fn.call(rt, this, args)
            return run

        callee = self._expr(node.callee)
        callee_name = getattr(node.callee, "name", "expression") \
            or "expression"

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            fn = callee(rt, scope)
            if not isinstance(fn, JSFunction):
                rt.throw("TypeError", f"{callee_name} is not a function")
            args = [argument(rt, scope) for argument in arguments]
            return fn.call(rt, UNDEFINED, args)
        return run

    def _c_NewExpression(self, node: ast.NewExpression):
        callee = self._expr(node.callee)
        arguments = tuple(self._expr(a) for a in node.arguments)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            constructor = callee(rt, scope)
            if not isinstance(constructor, JSFunction):
                rt.throw("TypeError", "not a constructor")
            args = [argument(rt, scope) for argument in arguments]
            try:
                return constructor.construct(rt, args)
            except NotImplementedError:
                rt.throw("TypeError",
                         f"{constructor.function_name or 'value'} "
                         "is not a constructor")
        return run

    def _c_UnaryExpression(self, node: ast.UnaryExpression):
        op = node.op
        line, column = node.line, node.column

        if op == "typeof":
            operand = self._expr(node.operand)
            if isinstance(node.operand, ast.Identifier):
                name = node.operand.name

                def run(rt, scope):
                    rt._ops_left = left = rt._ops_left - 1
                    if left < 0:
                        rt._budget_error()
                    stack = rt.call_stack
                    if stack:
                        frame = stack[-1]
                        frame.line = line
                        frame.column = column
                    # typeof never throws on unresolved identifiers.
                    if scope.resolve(name) is None:
                        global_object = rt.global_object
                        if global_object is None \
                                or not global_object.has_property(name):
                            return "undefined"
                    return js_typeof(operand(rt, scope))
                return run

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                return js_typeof(operand(rt, scope))
            return run

        if op == "delete":
            if isinstance(node.operand, ast.MemberExpression):
                member = node.operand
                target = self._expr(member.object)
                computed = member.computed
                prop = self._expr(member.property) if computed else None
                static_name = None if computed else member.property

                def run(rt, scope):
                    rt._ops_left = left = rt._ops_left - 1
                    if left < 0:
                        rt._budget_error()
                    stack = rt.call_stack
                    if stack:
                        frame = stack[-1]
                        frame.line = line
                        frame.column = column
                    obj = target(rt, scope)
                    if computed:
                        key = prop(rt, scope)
                        name = key if type(key) is str else rt.to_string(key)
                    else:
                        name = static_name
                    if isinstance(obj, JSObject):
                        return obj.delete_property(name)
                    return True
                return run
            return self._c_constant(node, False)

        operand = self._expr(node.operand)

        if op == "void":
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                operand(rt, scope)
                return UNDEFINED
            return run

        if op == "!":
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                return not js_truthy(operand(rt, scope))
            return run

        if op == "-":
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                value = operand(rt, scope)
                return -value if type(value) is float \
                    else -rt.to_number(value)
            return run

        if op == "+":
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                value = operand(rt, scope)
                return value if type(value) is float \
                    else rt.to_number(value)
            return run

        if op == "~":
            from repro.jsengine.interpreter import _to_int32

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                return float(~_to_int32(rt.to_number(operand(rt, scope))))
            return run

        raise NotImplementedError(f"unary operator {op}")

    def _c_UpdateExpression(self, node: ast.UpdateExpression):
        increment = node.op == "++"
        prefix = node.prefix
        line, column = node.line, node.column
        target = node.target

        if isinstance(target, ast.Identifier):
            name = target.name
            hops = _resolve_static(self.scope, name, for_write=True)

            if hops is not None:
                def run(rt, scope):
                    rt._ops_left = left = rt._ops_left - 1
                    if left < 0:
                        rt._budget_error()
                    stack = rt.call_stack
                    if stack:
                        frame = stack[-1]
                        frame.line = line
                        frame.column = column
                    holder = scope
                    for _ in range(hops):
                        holder = holder.parent
                    variables = holder.variables
                    old = variables[name]
                    if type(old) is float:
                        new = old + 1.0 if increment else old - 1.0
                        variables[name] = new
                        return new if prefix else old
                    # Coercion may run user code; fall back to the full
                    # read-coerce-reresolve-write sequence.
                    old = rt.to_number(old)
                    new = old + 1.0 if increment else old - 1.0
                    rt._assign_identifier(name, new, scope)
                    return new if prefix else old
                return run

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                # The target is read without a tick of its own: one
                # tick for the whole update.
                holder = scope
                old = _MISSING
                while holder is not None:
                    old = holder.variables.get(name, _MISSING)
                    if old is not _MISSING:
                        break
                    holder = holder.parent
                if old is _MISSING:
                    global_object = rt.global_object
                    if global_object is not None \
                            and global_object.has_property(name):
                        old = global_object.get(name, rt)
                    else:
                        rt.throw("ReferenceError",
                                 f"{name} is not defined")
                if type(old) is not float:
                    old = rt.to_number(old)
                new = old + 1.0 if increment else old - 1.0
                rt._assign_identifier(name, new, scope)
                return new if prefix else old
            return run

        if isinstance(target, ast.MemberExpression):
            obj_expr = self._expr(target.object)
            computed = target.computed
            prop = self._expr(target.property) if computed else None
            static_name = None if computed else target.property

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                # Read: the member node itself is not ticked (its
                # object sub-expression still is).
                obj = obj_expr(rt, scope)
                if computed:
                    key = prop(rt, scope)
                    name = key if type(key) is str else rt.to_string(key)
                else:
                    name = static_name
                if isinstance(obj, JSObject):
                    old = obj.get(name, rt)
                    hook = rt.access_hook
                    if hook is not None:
                        hook("get", obj, name, old)
                else:
                    old = rt.get_member(obj, name)
                old = rt.to_number(old)
                new = old + 1.0 if increment else old - 1.0
                # Write: object and key are evaluated again (their
                # ticks and side effects happen twice).
                obj = obj_expr(rt, scope)
                if computed:
                    key = prop(rt, scope)
                    name = key if type(key) is str else rt.to_string(key)
                rt.set_member(obj, name, new)
                return new if prefix else old
            return run

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            rt.throw("SyntaxError", "invalid update target")
        return run

    def _c_BinaryExpression(self, node: ast.BinaryExpression):
        op = node.op
        left_expr = self._expr(node.left)
        right_expr = self._expr(node.right)
        line, column = node.line, node.column

        if op == "+":
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                lhs = left_expr(rt, scope)
                rhs = right_expr(rt, scope)
                lhs_type = type(lhs)
                if lhs_type is type(rhs) and (lhs_type is float
                                              or lhs_type is str):
                    return lhs + rhs
                return rt.apply_binary("+", lhs, rhs)
            return run

        if op in ("-", "*"):
            sub = op == "-"

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                lhs = left_expr(rt, scope)
                rhs = right_expr(rt, scope)
                if type(lhs) is float and type(rhs) is float:
                    return lhs - rhs if sub else lhs * rhs
                return rt.apply_binary(op, lhs, rhs)
            return run

        if op == "/":
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                lhs = left_expr(rt, scope)
                rhs = right_expr(rt, scope)
                if type(lhs) is float and type(rhs) is float and rhs != 0:
                    return lhs / rhs
                return rt.apply_binary("/", lhs, rhs)
            return run

        if op == "%":
            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                lhs = left_expr(rt, scope)
                rhs = right_expr(rt, scope)
                if type(lhs) is float and type(rhs) is float:
                    # x != x is the NaN test; mirrors apply_binary "%".
                    if rhs == 0 or lhs != lhs or rhs != rhs:
                        return _math_nan
                    return _math_fmod(lhs, rhs)
                return rt.apply_binary("%", lhs, rhs)
            return run

        if op in ("<", ">", "<=", ">="):
            def run(rt, scope, _op=op):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                lhs = left_expr(rt, scope)
                rhs = right_expr(rt, scope)
                if type(lhs) is float and type(rhs) is float:
                    # Python comparisons on NaN are False, as JS
                    # relational operators require.
                    if _op == "<":
                        return lhs < rhs
                    if _op == ">":
                        return lhs > rhs
                    if _op == "<=":
                        return lhs <= rhs
                    return lhs >= rhs
                return rt.apply_binary(_op, lhs, rhs)
            return run

        if op in ("==", "!=", "===", "!=="):
            strict = op in ("===", "!==")
            negate = op in ("!=", "!==")

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                lhs = left_expr(rt, scope)
                rhs = right_expr(rt, scope)
                result = js_strict_equals(lhs, rhs) if strict \
                    else js_equals(lhs, rhs)
                return not result if negate else result
            return run

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            return rt.apply_binary(op, left_expr(rt, scope),
                                   right_expr(rt, scope))
        return run

    def _c_LogicalExpression(self, node: ast.LogicalExpression):
        left_expr = self._expr(node.left)
        right_expr = self._expr(node.right)
        conjunction = node.op == "&&"
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            value = left_expr(rt, scope)
            if conjunction:
                return right_expr(rt, scope) if js_truthy(value) else value
            return value if js_truthy(value) else right_expr(rt, scope)
        return run

    def _c_AssignmentExpression(self, node: ast.AssignmentExpression):
        op = node.op
        value_expr = self._expr(node.value)
        line, column = node.line, node.column
        target = node.target
        compound = op != "="
        binary_op = op[:-1] if compound else None

        if isinstance(target, ast.Identifier):
            name = target.name
            hops = _resolve_static(self.scope, name, for_write=True)

            if hops is not None and not compound:
                def run(rt, scope):
                    rt._ops_left = left = rt._ops_left - 1
                    if left < 0:
                        rt._budget_error()
                    stack = rt.call_stack
                    if stack:
                        frame = stack[-1]
                        frame.line = line
                        frame.column = column
                    value = value_expr(rt, scope)
                    holder = scope
                    for _ in range(hops):
                        holder = holder.parent
                    holder.variables[name] = value
                    return value
                return run

            if hops is not None:
                def run(rt, scope):
                    rt._ops_left = left = rt._ops_left - 1
                    if left < 0:
                        rt._budget_error()
                    stack = rt.call_stack
                    if stack:
                        frame = stack[-1]
                        frame.line = line
                        frame.column = column
                    holder = scope
                    for _ in range(hops):
                        holder = holder.parent
                    current = holder.variables[name]
                    rhs = value_expr(rt, scope)
                    if binary_op == "+" and type(current) is float \
                            and type(rhs) is float:
                        value = current + rhs
                    else:
                        value = rt.apply_binary(binary_op, current, rhs)
                    # The write resolves the name again: the rhs may
                    # have declared it in a nearer scope.
                    rt._assign_identifier(name, value, scope)
                    return value
                return run

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                if compound:
                    # The target is read without a tick of its own.
                    holder = scope
                    current = _MISSING
                    while holder is not None:
                        current = holder.variables.get(name, _MISSING)
                        if current is not _MISSING:
                            break
                        holder = holder.parent
                    if current is _MISSING:
                        global_object = rt.global_object
                        if global_object is not None \
                                and global_object.has_property(name):
                            current = global_object.get(name, rt)
                        else:
                            rt.throw("ReferenceError",
                                     f"{name} is not defined")
                    value = rt.apply_binary(binary_op, current,
                                            value_expr(rt, scope))
                else:
                    value = value_expr(rt, scope)
                rt._assign_identifier(name, value, scope)
                return value
            return run

        if isinstance(target, ast.MemberExpression):
            obj_expr = self._expr(target.object)
            computed = target.computed
            prop = self._expr(target.property) if computed else None
            static_name = None if computed else target.property

            def run(rt, scope):
                rt._ops_left = left = rt._ops_left - 1
                if left < 0:
                    rt._budget_error()
                stack = rt.call_stack
                if stack:
                    frame = stack[-1]
                    frame.line = line
                    frame.column = column
                if compound:
                    # Read evaluates object+key once...
                    obj = obj_expr(rt, scope)
                    if computed:
                        key = prop(rt, scope)
                        name = key if type(key) is str \
                            else rt.to_string(key)
                    else:
                        name = static_name
                    if isinstance(obj, JSObject):
                        current = obj.get(name, rt)
                        hook = rt.access_hook
                        if hook is not None:
                            hook("get", obj, name, current)
                    else:
                        current = rt.get_member(obj, name)
                    value = rt.apply_binary(binary_op, current,
                                            value_expr(rt, scope))
                else:
                    value = value_expr(rt, scope)
                # ...and the write evaluates them again.
                obj = obj_expr(rt, scope)
                if computed:
                    key = prop(rt, scope)
                    name = key if type(key) is str else rt.to_string(key)
                else:
                    name = static_name
                if isinstance(obj, JSObject):
                    hook = rt.access_hook
                    if hook is not None:
                        hook("set", obj, name, value)
                    obj.set(name, value, rt)
                else:
                    rt.set_member(obj, name, value)
                return value
            return run

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            if compound:
                rt.throw("SyntaxError", "invalid update target")
            value_expr(rt, scope)
            rt.throw("SyntaxError", "invalid assignment target")
        return run

    def _c_ConditionalExpression(self, node: ast.ConditionalExpression):
        test = self._expr(node.test)
        consequent = self._expr(node.consequent)
        alternate = self._expr(node.alternate)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            if js_truthy(test(rt, scope)):
                return consequent(rt, scope)
            return alternate(rt, scope)
        return run

    def _c_SequenceExpression(self, node: ast.SequenceExpression):
        expressions = tuple(self._expr(e) for e in node.expressions)
        line, column = node.line, node.column

        def run(rt, scope):
            rt._ops_left = left = rt._ops_left - 1
            if left < 0:
                rt._budget_error()
            stack = rt.call_stack
            if stack:
                frame = stack[-1]
                frame.line = line
                frame.column = column
            result = UNDEFINED
            for expression in expressions:
                result = expression(rt, scope)
            return result
        return run


_STMT: Dict[type, Any] = {
    ast.ExpressionStatement: _Compiler._c_ExpressionStatement,
    ast.VariableDeclaration: _Compiler._c_VariableDeclaration,
    ast.FunctionDeclaration: _Compiler._c_FunctionDeclaration,
    ast.BlockStatement: _Compiler._c_BlockStatement,
    ast.IfStatement: _Compiler._c_IfStatement,
    ast.WhileStatement: _Compiler._c_WhileStatement,
    ast.DoWhileStatement: _Compiler._c_DoWhileStatement,
    ast.ForStatement: _Compiler._c_ForStatement,
    ast.ForInStatement: _Compiler._c_ForInStatement,
    ast.ReturnStatement: _Compiler._c_ReturnStatement,
    ast.BreakStatement: _Compiler._c_BreakStatement,
    ast.ContinueStatement: _Compiler._c_ContinueStatement,
    ast.ThrowStatement: _Compiler._c_ThrowStatement,
    ast.TryStatement: _Compiler._c_TryStatement,
    ast.SwitchStatement: _Compiler._c_SwitchStatement,
    ast.EmptyStatement: _Compiler._c_EmptyStatement,
}

_EXPR: Dict[type, Any] = {
    ast.NumberLiteral: _Compiler._c_NumberLiteral,
    ast.StringLiteral: _Compiler._c_StringLiteral,
    ast.BooleanLiteral: _Compiler._c_BooleanLiteral,
    ast.NullLiteral: _Compiler._c_NullLiteral,
    ast.UndefinedLiteral: _Compiler._c_UndefinedLiteral,
    ast.ThisExpression: _Compiler._c_ThisExpression,
    ast.Identifier: _Compiler._c_Identifier,
    ast.ArrayLiteral: _Compiler._c_ArrayLiteral,
    ast.ObjectLiteral: _Compiler._c_ObjectLiteral,
    ast.FunctionExpression: _Compiler._c_FunctionExpression,
    ast.MemberExpression: _Compiler._c_MemberExpression,
    ast.CallExpression: _Compiler._c_CallExpression,
    ast.NewExpression: _Compiler._c_NewExpression,
    ast.UnaryExpression: _Compiler._c_UnaryExpression,
    ast.UpdateExpression: _Compiler._c_UpdateExpression,
    ast.BinaryExpression: _Compiler._c_BinaryExpression,
    ast.LogicalExpression: _Compiler._c_LogicalExpression,
    ast.AssignmentExpression: _Compiler._c_AssignmentExpression,
    ast.ConditionalExpression: _Compiler._c_ConditionalExpression,
    ast.SequenceExpression: _Compiler._c_SequenceExpression,
}
