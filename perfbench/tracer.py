"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the program's layers from here,
without touching the program's source. Each call into a wrapped
function becomes a span with a name, start, end, parent span and item
id. Spans stay in memory until :meth:`Tracer.write` dumps them at the
end of the run, packed into one flat ``array`` of integers (span names
are interned): a list of span objects would add tens of thousands of
long-lived objects per pass, and in workloads where the collector
takes half the time that changes how often a full collection runs,
and so the very timings being traced. A layer's self time is its
span's duration minus the durations of its direct child spans; spans
on one thread nest strictly, so the children never overlap.

An *item* is the unit an end-to-end latency is taken over (one
``execute_command_sequence`` call, one scanned site, one request).
Item spans carry a fresh item id, inherited by every span opened
inside them. The time an item spends outside every layer span is its
*unattributed* time.

Garbage-collector pauses are recorded through ``gc.callbacks`` as a
cross-cutting view. They are not subtracted from any layer's self
time, because a collection pauses whichever span happens to be open.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import sys
from array import array
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

ITEM = "item"
#: Fields of one span in ``Tracer.spans``.
SPAN_FIELDS = ("name", "start_ns", "end_ns", "span", "parent", "item")


class _Frame:
    __slots__ = ("span_id", "name", "start", "child_ns", "item_id")

    def __init__(self, span_id: int, name: str, start: int,
                 item_id: int) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_ns = 0
        self.item_id = item_id


class Tracer:
    """Spans, self times and exact counts, gathered while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Finished spans, SPAN_FIELDS after one another, the name as
        #: its index in ``_names``.
        self.spans = array("q")
        self._names: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Counter = Counter()
        self.item_ns = 0
        self.item_self_ns = 0
        self.items = 0
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._gc_start: Dict[int, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[_Frame]:
        if not self.active:
            return None
        stack = self._stack()
        if name == ITEM:
            item_id = next(self._ids)
        else:
            item_id = stack[-1].item_id if stack else 0
        frame = _Frame(next(self._ids), name, time.perf_counter_ns(),
                       item_id)
        stack.append(frame)
        return frame

    def end(self, frame: Optional[_Frame]) -> None:
        if frame is None:
            return
        end = time.perf_counter_ns()
        stack = self._stack()
        # An exception may have skipped inner ends; unwind to ``frame``.
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_ns += duration
        with self._lock:
            name = self._names.setdefault(frame.name, len(self._names))
            self.spans.extend((name, frame.start, end, frame.span_id,
                               parent.span_id if parent else 0,
                               frame.item_id))
            self.self_ns[frame.name] += duration - frame.child_ns
            if frame.name == ITEM:
                self.items += 1
                self.item_ns += duration
                self.item_self_ns += duration - frame.child_ns

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] += n

    # -- wrapping -----------------------------------------------------
    def _wrapper(self, name: str, fn: Callable,
                 counter: Optional[str]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                tracer.count(counter)
            frame = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)

        return traced

    def _counter(self, counter: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.count(counter)
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, name: str,
             counter: Optional[str] = None) -> None:
        """Time ``owner.attr`` as span *name* (optionally counting calls)."""
        self._set(owner, attr,
                  self._wrapper(name, owner.__dict__[attr], counter))

    def wrap_function(self, module: Any, attr: str, name: str) -> None:
        """Time a module-level function, including every copy other
        modules imported by name."""
        original = getattr(module, attr)
        traced = self._wrapper(name, original, None)
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                self._set(other, attr, traced)

    def count_calls(self, owner: Any, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        self._set(owner, attr, self._counter(counter, owner.__dict__[attr]))

    def replace_in_dict(self, mapping: Dict[str, Callable],
                        name: str) -> None:
        """Time every function stored in a registry dict."""
        for key, fn in list(mapping.items()):
            self._patches.append((mapping, key, fn))
            mapping[key] = self._wrapper(name, fn, None)

    def bracket_items(self, begin: Tuple[Any, str], end: Tuple[Any, str],
                      on_begin: Callable[[], None],
                      on_end: Callable[[], None]) -> None:
        """Open an item span when ``begin`` is called and close it when
        ``end`` returns (the same call for crawls; two calls bracketing
        one site for the scan). Patch these after the layers, so that
        the item span encloses every layer span of the item."""
        tracer = self
        local = threading.local()

        def open_item() -> None:
            on_begin()
            local.frame = tracer.begin(ITEM)

        def close_item() -> None:
            tracer.end(getattr(local, "frame", None))
            local.frame = None
            on_end()

        def around(fn: Callable, before: Optional[Callable],
                   after: Optional[Callable]) -> Callable:
            @functools.wraps(fn)
            def bracketed(*args: Any, **kwargs: Any) -> Any:
                if before is not None:
                    before()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if after is not None:
                        after()
            return bracketed

        if begin == end:
            self._set(begin[0], begin[1],
                      around(begin[0].__dict__[begin[1]], open_item,
                             close_item))
        else:
            self._set(begin[0], begin[1],
                      around(begin[0].__dict__[begin[1]], open_item, None))
            self._set(end[0], end[1],
                      around(end[0].__dict__[end[1]], None, close_item))

    def _gc_callback(self, phase: str, info: Dict[str, int]) -> None:
        if not self.active:
            return
        key = threading.get_ident()
        if phase == "start":
            self._gc_start[key] = time.perf_counter_ns()
            if info.get("generation") == 2:
                self.gc_gen2 += 1
        else:
            started = self._gc_start.pop(key, None)
            if started is not None:
                self.gc_pause_ns += time.perf_counter_ns() - started

    def install(self) -> None:
        """Start timing collector pauses (the wrappers are in place as
        soon as they are made)."""
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        """Stop timing collector pauses and restore every original."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------
    def reset(self) -> None:
        """Forget the totals; the finished spans are kept for write()."""
        self.self_ns.clear()
        self.counts.clear()
        self.item_ns = self.item_self_ns = self.items = 0
        self.gc_pause_ns = self.gc_gen2 = 0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"self_ns": dict(self.self_ns),
                    "counts": dict(self.counts),
                    "items": self.items,
                    "item_ns": self.item_ns,
                    "item_self_ns": self.item_self_ns,
                    "gc_pause_ns": self.gc_pause_ns,
                    "gc_gen2": self.gc_gen2}

    def write(self, path: str) -> None:
        """Dump every span as one JSON array per line."""
        names = sorted(self._names, key=self._names.__getitem__)
        width = len(SPAN_FIELDS)
        with open(path, "w") as handle:
            handle.write(json.dumps(SPAN_FIELDS) + "\n")
            for at in range(0, len(self.spans), width):
                span = self.spans[at:at + width].tolist()
                span[0] = names[span[0]]
                handle.write(json.dumps(span, separators=(",", ":"))
                             + "\n")
