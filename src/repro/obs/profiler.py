"""Deterministic JS-engine profiler: op counts per script and function.

"Where does JS-engine time go?" is the first question of every perf
investigation here, and wall-clock profiles of a deterministic engine
are noise. This profiler counts the engine's own *op-budget ticks*
instead: the compiled closures decrement ``Interpreter._ops_left``
once per executed node and route every program/function entry through
``push_frame``/``pop_frame`` — so a shadow stack snapshotting
``ops_used`` at frame entry and exit attributes exactly the ticks the
budget machinery already pays for. Same crawl, same seed, same
profile, bit for bit.

Attribution is two-level:

* **scripts** — keyed by ``script_hash`` (sha256 of the source, the
  same formula as :func:`repro.corpus.script_hash` and the AST cache),
  so hot scripts join the corpus store directly. The hash is noted by
  ``Interpreter.run`` at program start and charged the program frame's
  total op delta at program exit.
* **functions** — keyed by ``(script_url, function_name)``, charged
  *self* ops: the frame's op delta minus its callees' deltas. Native
  builtins never push frames, so their ticks land in the calling
  frame's self ops (they are the caller's cost in this engine).

Install with :func:`install_profiler`; interpreters created afterwards
pick it up (one ``is not None`` branch per frame push when disabled).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple


class _Entry:
    """One shadow-stack slot: a frame's op accounting in progress."""

    __slots__ = ("function_name", "script_url", "entry_ops",
                 "child_ops", "script_hash")

    def __init__(self, function_name: str, script_url: str,
                 entry_ops: int, script_hash: Optional[str]) -> None:
        self.function_name = function_name
        self.script_url = script_url
        self.entry_ops = entry_ops
        self.child_ops = 0
        self.script_hash = script_hash


class ScriptProfiler:
    """Aggregates per-script and per-function op counts across a crawl.

    Thread-safe: each interpreter carries its own shadow stack (workers
    never share an interpreter mid-run), and the aggregate tables are
    updated under one lock at frame exit only.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: hash -> {"script_url", "ops", "runs"}
        self._scripts: Dict[str, Dict[str, Any]] = {}
        #: (script_url, function_name) -> {"self_ops", "total_ops",
        #:                                  "calls"}
        self._functions: Dict[Tuple[str, str], Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Engine hooks (called from Interpreter.push_frame / pop_frame)
    # ------------------------------------------------------------------
    def on_push(self, interp: Any, frame: Any) -> None:
        stack = getattr(interp, "_profile_stack", None)
        if stack is None:
            stack = []
            interp._profile_stack = stack
        if len(interp.call_stack) == 1:
            # Depth-0 push: a fresh program (or instrument) run. The
            # budget may just have been reset, so any stale entries
            # from an aborted earlier run must not absorb this run's
            # deltas.
            del stack[:]
        script_hash = None
        if not stack:
            # Consumed exactly once: only the program frame of a
            # ``run()`` carries the noted content hash; instrument
            # frames entered at depth 0 stay hash-less.
            script_hash = getattr(interp, "_profile_hash", None)
            interp._profile_hash = None
        stack.append(_Entry(frame.function_name, frame.script_url,
                            interp.ops_used, script_hash))

    def on_pop(self, interp: Any, frame: Any) -> None:
        stack = getattr(interp, "_profile_stack", None)
        if not stack:
            return
        entry = stack.pop()
        delta = interp.ops_used - entry.entry_ops
        if delta < 0:
            # A mid-frame budget reset (defensive; run_program resets
            # only at depth 0, where the stack was cleared).
            delta = entry.child_ops
        self_ops = delta - entry.child_ops
        if self_ops < 0:
            self_ops = 0
        if stack:
            stack[-1].child_ops += delta
        with self._lock:
            if entry.script_hash is not None:
                script = self._scripts.get(entry.script_hash)
                if script is None:
                    script = {"script_url": entry.script_url,
                              "ops": 0, "runs": 0}
                    self._scripts[entry.script_hash] = script
                script["ops"] += delta
                script["runs"] += 1
            key = (entry.script_url, entry.function_name)
            fn = self._functions.get(key)
            if fn is None:
                fn = {"self_ops": 0, "total_ops": 0, "calls": 0}
                self._functions[key] = fn
            fn["self_ops"] += self_ops
            fn["total_ops"] += delta
            fn["calls"] += 1

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def hot_scripts(self, top_n: Optional[int] = None
                    ) -> List[Dict[str, Any]]:
        """Scripts ranked by total op count (desc), hash tie-break."""
        with self._lock:
            rows = [
                {"script_hash": digest, "script_url": data["script_url"],
                 "ops": data["ops"], "runs": data["runs"]}
                for digest, data in self._scripts.items()]
        rows.sort(key=lambda r: (-r["ops"], r["script_hash"]))
        return rows[:top_n] if top_n is not None else rows

    def hot_functions(self, top_n: Optional[int] = None
                      ) -> List[Dict[str, Any]]:
        """Functions ranked by self op count (desc)."""
        with self._lock:
            rows = [
                {"script_url": url, "function": name,
                 "self_ops": data["self_ops"],
                 "total_ops": data["total_ops"], "calls": data["calls"]}
                for (url, name), data in self._functions.items()]
        rows.sort(key=lambda r: (-r["self_ops"], r["script_url"],
                                 r["function"]))
        return rows[:top_n] if top_n is not None else rows

    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        return {"scripts": self.hot_scripts(),
                "functions": self.hot_functions()}

    def clear(self) -> None:
        with self._lock:
            self._scripts.clear()
            self._functions.clear()


def install_profiler(profiler: Optional[ScriptProfiler]
                     ) -> Optional[ScriptProfiler]:
    """Make *profiler* the engine-wide profiler for interpreters created
    from now on (``None`` uninstalls). Returns the previous one."""
    from repro.jsengine import interpreter as engine

    previous = engine._PROFILER
    engine._PROFILER = profiler
    return previous
