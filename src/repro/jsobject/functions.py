"""Function objects.

Two concrete function kinds share the :class:`JSFunction` interface:

* :class:`NativeFunction` — implemented in Python (host/browser builtins).
  Its ``toString`` yields the canonical ``[native code]`` string, which is
  exactly what fingerprinting scripts check (paper, Listing 1).
* ``ScriptFunction`` (defined by the interpreter in
  :mod:`repro.jsengine.interpreter`) — defined by page JavaScript; its
  ``toString`` yields the original source text.

OpenWPM's vanilla instrumentation replaces native functions with *script*
wrappers, so their ``toString`` betrays the instrumentation. The hardened
variant installs native-looking exported functions instead
(:mod:`repro.core.hardening.export_function`).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.jsobject.objects import JSObject
from repro.jsobject.values import UNDEFINED


class JSFunction(JSObject):
    """Base class for callable JS objects."""

    def __init__(self, name: str = "", proto: Optional[JSObject] = None) -> None:
        super().__init__(proto=proto, class_name="Function")
        self.function_name = name

    def call(self, interp: Any, this: Any, args: List[Any]) -> Any:
        """Invoke the function. ``interp`` may be None for host calls."""
        raise NotImplementedError

    def construct(self, interp: Any, args: List[Any]) -> Any:
        """Invoke as a constructor (``new F(...)``)."""
        raise NotImplementedError(
            f"{self.function_name or 'anonymous'} is not a constructor")

    def to_source_string(self) -> str:
        """The value returned by ``Function.prototype.toString``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.function_name or '(anonymous)'}>"


def native_source(name: str) -> str:
    """The exact ``toString`` output of an uninstrumented browser builtin."""
    return "function %s() {\n    [native code]\n}" % name


class NativeFunction(JSFunction):
    """A function implemented by the host (browser builtins, DOM APIs).

    ``fn`` receives ``(interp, this, args)`` and returns a JS value. The
    ``masquerade_name`` controls the name embedded in the native-code
    ``toString`` output; exported stealth wrappers reuse the original
    builtin's name so ``toString`` is indistinguishable from the original.
    """

    def __init__(self, fn: Callable[[Any, Any, List[Any]], Any],
                 name: str = "", proto: Optional[JSObject] = None,
                 masquerade_name: Optional[str] = None,
                 constructor: Optional[Callable[[Any, List[Any]], Any]] = None,
                 ) -> None:
        super().__init__(name=name, proto=proto)
        self._fn = fn
        self._constructor = constructor
        self.masquerade_name = masquerade_name if masquerade_name is not None else name

    def call(self, interp: Any, this: Any, args: List[Any]) -> Any:
        return self._fn(interp, this, args)

    def construct(self, interp: Any, args: List[Any]) -> Any:
        if self._constructor is None:
            return super().construct(interp, args)
        return self._constructor(interp, args)

    def to_source_string(self) -> str:
        return native_source(self.masquerade_name)


def returns_undefined(interp: Any, this: Any, args: List[Any]) -> Any:
    """A native body that does nothing (host no-op methods, setters)."""
    return UNDEFINED


def native_function(name: str = "") -> Callable:
    """Decorator turning ``fn(interp, this, args)`` into a NativeFunction."""

    def wrap(fn: Callable[[Any, Any, List[Any]], Any]) -> NativeFunction:
        return NativeFunction(fn, name=name or fn.__name__)

    return wrap
