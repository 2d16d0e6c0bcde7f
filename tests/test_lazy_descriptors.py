"""Placeholder descriptors: built on first touch, observably eager.

The JS instrument, the window's host methods and WPM_hide install
:class:`~repro.jsobject.descriptors.LazyDescriptor` placeholders whose
functions are built the first time anything reads them. These tests
pin that a page cannot tell: a window whose placeholders were all built
from Python beforehand answers every page operation exactly as a window
whose placeholders are built by the operations themselves, and records
the same ``javascript`` rows. They also pin the laziness itself.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.browser import openwpm_profile
from repro.core.hardening.stealth import StealthJSInstrument
from repro.core.lab import make_window
from repro.jsobject.descriptors import (
    DescriptorTemplate,
    LazyDescriptor,
    PropertyDescriptor,
)
from repro.jsobject.objects import JSObject
from repro.openwpm import BrowserParams, OpenWPMExtension
from repro.openwpm.instruments.js_instrument import (
    target_chain,
    target_object_name,
)

#: (page expression, holder of the wrapped property, property name):
#: one of each wrapper kind and install route.
TARGETS = [
    ("navigator", "Object.getPrototypeOf(navigator)", "userAgent"),
    ("screen", "Object.getPrototypeOf(screen)", "width"),
    ("screen", "Object.getPrototypeOf(screen)", "addEventListener"),
    ("Object.getPrototypeOf(Object.getPrototypeOf(screen))",
     "Object.getPrototypeOf(Object.getPrototypeOf(screen))",
     "addEventListener"),
    ("CanvasRenderingContext2D.prototype",
     "CanvasRenderingContext2D.prototype", "fillRect"),
    ("CanvasRenderingContext2D.prototype",
     "CanvasRenderingContext2D.prototype", "measureText"),
    ("WebGLRenderingContext.prototype", "WebGLRenderingContext.prototype",
     "drawArrays"),
    ("OfflineAudioContext.prototype", "OfflineAudioContext.prototype",
     "sampleRate"),
    ("performance", "Object.getPrototypeOf(performance)", "mark"),
    ("localStorage", "localStorage", "getItem"),
    ("window", "window", "innerWidth"),
]

#: Page operations; ``T`` is the object, ``H`` the property's holder
#: and ``P`` the property name (a string literal).
OPERATIONS = {
    "get": 'var v = T[P]; return typeof v + ":" + (v === T[P]) + ":"'
           ' + (typeof v === "function" ? v.name : String(v));',
    "toString": 'return "" + T[P];',
    "set": 'T[P] = 7; return typeof T[P] + ":" + String(T[P] === 7);',
    "call": 'return String(T[P](1, "a"));',
    "descriptor": 'var d = Object.getOwnPropertyDescriptor(H, P);'
                  ' if (!d) return "none";'
                  ' var e = Object.getOwnPropertyDescriptor(H, P);'
                  ' return [d.get === e.get, d.set === e.set,'
                  ' d.value === e.value, typeof d.get, typeof d.set,'
                  ' typeof d.value, d.enumerable, d.configurable,'
                  ' d.writable].join(",");',
    "names": 'return Object.getOwnPropertyNames(H).join(",");',
    "forIn": 'var k = []; for (var n in T) { k.push(n); }'
             ' return k.join(",");',
    "delete": 'var r = delete H[P];'
              ' return String(r) + ":" + (P in T) + ":" + typeof T[P];',
    "define": 'Object.defineProperty(H, P, {value: 3, writable: true,'
              ' enumerable: true, configurable: true});'
              ' return String(T[P]);',
    "stack": 'try { T[P](); return "no throw"; }'
             ' catch (e) { return e.message + "|" + e.stack; }',
}


def _script(operation: str, target: int) -> str:
    obj, holder, name = TARGETS[target]
    body = OPERATIONS[operation]
    return ("(function (T, H, P) { try { " + body
            + ' } catch (e) { return "E:" + e.message + "|" + e.stack; }'
            + f" }})({obj}, {holder}, {json.dumps(name)});")


def _window(instrument=None):
    params = BrowserParams(stealth=instrument is not None)
    extension = OpenWPMExtension(params, js_instrument=instrument)
    _, window = make_window(openwpm_profile("ubuntu", "regular"),
                            extension=extension)
    return extension, window


def _placeholders(window):
    """Every placeholder reachable from the window's global object."""
    seen, stack, found = set(), [window.window_object], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if obj.proto is not None:
            stack.append(obj.proto)
        for desc in list(obj.properties.values()):
            if isinstance(desc, LazyDescriptor):
                found.append(desc)
                desc.build()
            for value in (desc.value, desc.get, desc.set):
                if isinstance(value, JSObject):
                    stack.append(value)
    return found


def _run(window, steps):
    return [window.run_script(_script(operation, target),
                              raise_errors=True)
            for operation, target in steps]


steps_strategy = st.lists(
    st.tuples(st.sampled_from(sorted(OPERATIONS)),
              st.integers(min_value=0, max_value=len(TARGETS) - 1)),
    min_size=1, max_size=8)


class TestBuiltAheadEqualsBuiltOnTouch:
    @pytest.mark.parametrize("stealth", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(steps=steps_strategy)
    # The page rewrites EventTarget's method in place, then uses the
    # copy the instrument put on Screen's prototype (Fig. 2).
    @example(steps=[("set", 3), ("call", 2)])
    @example(steps=[("define", 3), ("stack", 2)])
    def test_same_results_and_rows(self, stealth, steps):
        prebuilt_ext, prebuilt = _window(
            StealthJSInstrument() if stealth else None)
        lazy_ext, lazy = _window(StealthJSInstrument() if stealth else None)
        assert _placeholders(prebuilt)
        assert _run(prebuilt, steps) == _run(lazy, steps)
        assert prebuilt_ext.js_instrument.records \
            == lazy_ext.js_instrument.records

    def test_every_operation_runs(self):
        _, window = _window()
        for operation in OPERATIONS:
            for target in range(len(TARGETS)):
                result = window.run_script(_script(operation, target),
                                           raise_errors=True)
                assert isinstance(result, str)


class TestLaziness:
    def test_install_builds_nothing(self):
        extension, window = _window()
        wrapped = [desc for desc in window.screen_proto.properties.values()
                   if desc.meta.get("openwpm_wrapped")]
        assert wrapped
        assert all(isinstance(desc, LazyDescriptor) and not desc.built
                   for desc in wrapped)

    @pytest.mark.parametrize("rank", [0, 2, 4, 7])
    def test_tranco_visit_builds_only_what_the_page_touched(self, rank):
        from repro.browser import Browser
        from repro.web import build_world

        web = build_world(site_count=20, seed=3)
        extension = OpenWPMExtension(BrowserParams())
        browser = Browser(openwpm_profile("ubuntu", "regular"),
                          web.network, extension=extension, seed=3)
        browser.visit(web.front_urls(rank + 1)[rank], wait=60.0)
        instrument = extension.js_instrument
        built, wrapped = set(), 0
        for window in extension.instrumented_windows:
            for target in instrument.targets:
                obj = instrument._resolve_path(window, target.path)
                holder = target_chain(window, obj, target)[0]
                for name, desc in holder.properties.items():
                    if not desc.meta.get("openwpm_wrapped"):
                        continue
                    wrapped += 1
                    if desc.built:
                        built.add(f"{target_object_name(target)}.{name}")
        assert built
        assert built == {record.symbol for record in instrument.records}
        assert len(built) * 10 < wrapped


class TestLazyDescriptor:
    class Counting(DescriptorTemplate):
        accessor = True

        def __init__(self):
            self.builds = 0

        def build(self, args):
            self.builds += 1
            return "unused", ("getter", args), ("setter", args)

    def test_builds_once_on_first_read_and_keeps_identity(self):
        template = self.Counting()
        desc = LazyDescriptor(template, "x")
        assert desc.is_accessor and not desc.holds_function()
        assert template.builds == 0
        first = desc.get
        assert desc.get is first and desc.set == ("setter", "x")
        assert template.builds == 1 and desc.built

    def test_copy_builds_and_returns_a_plain_descriptor(self):
        desc = LazyDescriptor(self.Counting(), "y", enumerable=False)
        copy = desc.copy()
        assert type(copy) is PropertyDescriptor
        assert copy.get == ("getter", "y") and not copy.enumerable

    def test_written_field_survives_the_build(self):
        template = self.Counting()
        template.accessor = False
        desc = LazyDescriptor(template, "z")
        desc.value = 5.0
        assert desc.value == 5.0 and template.builds == 0
        assert desc.get == ("getter", "z")
        assert desc.value == 5.0

    def test_meta_comes_from_the_template_until_marked(self):
        template = self.Counting()
        template.marks = {"family": True}
        desc = LazyDescriptor(template, "m")
        assert desc.meta == {"family": True}
        desc.mark("extra", 1)
        assert desc.meta == {"family": True, "extra": 1}
        assert template.marks == {"family": True}
        assert dict(PropertyDescriptor.data(1.0).meta) == {}
