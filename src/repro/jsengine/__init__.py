"""A small JavaScript engine (lexer, parser, closure compiler).

The engine executes the JavaScript subset used by the synthetic web's
scripts: bot detectors, trackers, attack payloads, and the instrumentation
injected by OpenWPM. Scripts are real JS source text, so the paper's
*static* analysis (regexes over deobfuscated source) and *dynamic*
analysis (recorded property accesses during execution) both operate on
the same artifacts they would in the field.

Execution: :mod:`repro.jsengine.compiler` lowers each parsed program
to a tree of Python closures that run against an
:class:`Interpreter` (realm, scopes, call stack, op budget). What a
page can observe — results, budget op counts, stack traces and
instrument event order — is pinned case by case by recorded
expectations (``tests/golden/jsengine_cases.json``). Parsed programs
live in a process-wide LRU keyed by the source's sha256 (the same
content hash the corpus store uses), with compiled closure trees
attached to the cached ASTs.

Supported language: ``var``/``let``/``const``, functions (declarations,
expressions, arrows), closures, ``this``, ``new``, prototypes, objects,
arrays, ``for``/``for..in``/``while``/``do``, ``if``, ``try/catch/finally``,
``throw``, ``typeof``/``delete``/``instanceof``/``in``, the usual operators,
and string/array/object builtins.
"""

from repro.jsengine.lexer import Lexer, LexError, Token
from repro.jsengine.parser import ParseError, Parser, parse
from repro.jsengine.interpreter import (
    Interpreter,
    ScriptFunction,
    ast_cache_stats,
    clear_ast_cache,
    export_cache_metrics,
    parse_cached,
    source_digest,
    warm_compile_cache,
)

__all__ = [
    "Lexer",
    "LexError",
    "Token",
    "Parser",
    "ParseError",
    "parse",
    "Interpreter",
    "ScriptFunction",
    "ast_cache_stats",
    "clear_ast_cache",
    "export_cache_metrics",
    "parse_cached",
    "source_digest",
    "warm_compile_cache",
]
