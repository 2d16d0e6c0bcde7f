"""Property descriptors.

JavaScript properties are either *data* descriptors (a value plus
writability) or *accessor* descriptors (getter/setter functions). The
OpenWPM JavaScript instrument — and the attacks against it — work by
replacing descriptors, so the model implements them in full.

Hosts and instruments install hundreds of function-valued properties
per window, of which a page touches a handful. A
:class:`LazyDescriptor` stands in for such a property: it holds a shared
:class:`DescriptorTemplate` plus that property's plain arguments, and
builds its real getter, setter or function value the first time
anything reads ``get``, ``set`` or ``value`` — a page ``[[Get]]`` or
``[[Set]]``, ``Object.getOwnPropertyDescriptor``, :meth:`copy` or
tooling. It keeps what it built, so function identity is stable. Until
then, everything a page can observe without reading those fields (own
keys, their order, attributes) is already in place.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, Optional, Tuple

from repro.jsobject.values import UNDEFINED, is_callable

#: The ``meta`` of a descriptor nothing has marked.
NO_META: Mapping[str, Any] = MappingProxyType({})


class PropertyDescriptor:
    """A JS property descriptor.

    Exactly one of the two shapes is populated:

    * data descriptor: ``value`` (+ ``writable``)
    * accessor descriptor: ``get`` / ``set``
    """

    __slots__ = ("value", "get", "set", "writable", "enumerable",
                 "configurable", "_meta")

    def __init__(self, value: Any = UNDEFINED, get: Optional[Any] = None,
                 set: Optional[Any] = None, writable: bool = True,
                 enumerable: bool = True, configurable: bool = True,
                 meta: Optional[Mapping[str, Any]] = None) -> None:
        self.value = value
        self.get = get  # JSFunction or None
        self.set = set  # JSFunction or None
        self.writable = writable
        self.enumerable = enumerable
        self.configurable = configurable
        self._meta = dict(meta) if meta else None

    @property
    def is_accessor(self) -> bool:
        return self.get is not None or self.set is not None

    def holds_function(self) -> bool:
        """True for a data property whose value is a function."""
        return not self.is_accessor and is_callable(self.value)

    @property
    def meta(self) -> Mapping[str, Any]:
        """Tooling marks (e.g. the instrumentation marks wrapped
        descriptors), invisible to page scripts. Read-only: write them
        with :meth:`mark`, which allocates the mapping."""
        return self._meta if self._meta is not None else NO_META

    def mark(self, key: str, value: Any) -> None:
        meta = dict(self.meta)
        meta[key] = value
        self._meta = meta

    @classmethod
    def data(cls, value: Any, writable: bool = True, enumerable: bool = True,
             configurable: bool = True) -> "PropertyDescriptor":
        """Build a data descriptor."""
        return cls(value=value, writable=writable, enumerable=enumerable,
                   configurable=configurable)

    @classmethod
    def accessor(cls, get: Any = None, set: Any = None, enumerable: bool = True,
                 configurable: bool = True) -> "PropertyDescriptor":
        """Build an accessor descriptor."""
        return cls(get=get, set=set, enumerable=enumerable,
                   configurable=configurable)

    def copy(self) -> "PropertyDescriptor":
        return PropertyDescriptor(
            value=self.value, get=self.get, set=self.set,
            writable=self.writable, enumerable=self.enumerable,
            configurable=self.configurable, meta=self.meta,
        )

    def __repr__(self) -> str:
        shape = f"get={self.get!r}, set={self.set!r}" if self.is_accessor \
            else f"value={self.value!r}, writable={self.writable}"
        return (f"{type(self).__name__}({shape}, "
                f"enumerable={self.enumerable}, "
                f"configurable={self.configurable})")


class DescriptorTemplate:
    """How one family of :class:`LazyDescriptor` placeholders is built.

    A template is shared by every placeholder of its family (typically
    one per window and wrapper kind); each placeholder adds only its own
    ``args``. ``accessor`` says whether the family builds accessor
    properties or data properties holding a function; ``marks`` is the
    ``meta`` its placeholders report.
    """

    __slots__ = ()
    accessor = False
    marks: Mapping[str, Any] = NO_META

    def build(self, args: Any) -> Tuple[Any, Any, Any]:
        """Return the ``(value, get, set)`` of the placeholder *args*."""
        raise NotImplementedError


class LazyDescriptor(PropertyDescriptor):
    """A placeholder descriptor whose functions are built on first read.

    ``value``, ``get`` and ``set`` start unset; reading any of them runs
    ``template.build(args)`` once (see the module docstring). A field
    written before the build keeps the written value. Shape queries
    (:attr:`is_accessor`, :meth:`holds_function`) answer from the
    template without building.
    """

    __slots__ = ("template", "args", "built")

    def __init__(self, template: DescriptorTemplate, args: Any,
                 writable: bool = True, enumerable: bool = True,
                 configurable: bool = True) -> None:
        self.template = template
        self.args = args
        self.built = False
        self.writable = writable
        self.enumerable = enumerable
        self.configurable = configurable
        self._meta = None

    def __getattr__(self, name: str) -> Any:
        # Only reached while a field's slot is still unset.
        if name not in ("value", "get", "set") or self.built:
            raise AttributeError(name)
        self.build()
        return getattr(self, name)

    def build(self) -> None:
        """Build the real functions now (idempotent)."""
        if self.built:
            return
        built = self.template.build(self.args)
        self.built = True
        self.args = None
        for field, result in zip(("value", "get", "set"), built):
            try:
                object.__getattribute__(self, field)
            except AttributeError:
                object.__setattr__(self, field, result)

    @property
    def is_accessor(self) -> bool:
        if not self.built:
            return self.template.accessor
        return self.get is not None or self.set is not None

    def holds_function(self) -> bool:
        if not self.built:
            return not self.template.accessor
        return super().holds_function()

    @property
    def meta(self) -> Mapping[str, Any]:
        return self._meta if self._meta is not None \
            else self.template.marks

    def __repr__(self) -> str:
        if not self.built:
            return (f"LazyDescriptor({type(self.template).__name__}, "
                    f"{self.args!r})")
        return super().__repr__()
