"""Dynamic analysis: the scanning crawl client (paper Sec. 4.1).

Extends the OpenWPM extension with the paper's two additions:

* **honey properties** — randomly named accessor properties planted on
  ``navigator`` and ``window``; only a script that *iterates* properties
  touches them, which separates fingerprinting sweeps from targeted
  ``navigator.webdriver`` probes (the 'inconclusive' class);
* **residue monitors** — recording accessors on the OpenWPM-specific
  window properties (``getInstrumentJS``/``jsInstruments``/
  ``instrumentFingerprintingApis``), so scripts probing for OpenWPM are
  observed even when the probed property does not exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.browser.extension import ExtensionContext
from repro.jsobject.descriptors import PropertyDescriptor
from repro.jsobject.functions import NativeFunction
from repro.jsobject.values import UNDEFINED
from repro.openwpm.config import BrowserParams
from repro.openwpm.extension import OpenWPMExtension

#: OpenWPM instrument residue across versions (Sec. 3.2).
RESIDUE_PROPERTIES = ("getInstrumentJS", "jsInstruments",
                      "instrumentFingerprintingApis")

HONEY_PROPERTY_COUNT = 6


@dataclass
class HoneyAccess:
    """One access to a honey or residue property."""

    property_name: str
    script_url: str
    kind: str  # 'honey' | 'residue'


class ScanExtension(OpenWPMExtension):
    """OpenWPM extension + honey properties + residue monitors."""

    name = "openwpm-scan"

    def __init__(self, params: Optional[BrowserParams] = None,
                 storage: Any = None) -> None:
        super().__init__(params or BrowserParams(save_content="all"),
                         storage=storage)
        self.honey_accesses: List[HoneyAccess] = []
        self._honey_names: List[str] = []

    # ------------------------------------------------------------------
    def on_window_created(self, window: Any) -> None:
        super().on_window_created(window)
        self._plant_honey(window)
        self._monitor_residue(window)

    def on_frame_created(self, window: Any, parent: Any) -> None:
        super().on_frame_created(window, parent)
        self._plant_honey(window)
        self._monitor_residue(window)

    # ------------------------------------------------------------------
    def _script_url(self, window: Any) -> str:
        for frame in reversed(window.interp.call_stack):
            if not frame.script_url.startswith("moz-extension://"):
                return frame.script_url
        return ""

    def _plant_honey(self, window: Any) -> None:
        rng = window.browser.rng
        navigator = window.window_object.get("navigator", window.interp)
        for index in range(HONEY_PROPERTY_COUNT):
            name = "h" + "".join(
                rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
                for _ in range(12))
            self._honey_names.append(name)
            target = navigator if index % 2 == 0 else window.window_object
            self._install_recorder(window, target, name, kind="honey",
                                   value=f"honey-{index}")

    def _monitor_residue(self, window: Any) -> None:
        for name in RESIDUE_PROPERTIES:
            existing = window.window_object.get_own_descriptor(name)
            value = existing.value if existing is not None else UNDEFINED
            self._install_recorder(window, window.window_object, name,
                                   kind="residue", value=value)

    def _install_recorder(self, window: Any, target: Any, name: str,
                          kind: str, value: Any) -> None:
        def getter(interp, this, args):
            self.honey_accesses.append(HoneyAccess(
                property_name=name,
                script_url=self._script_url(window),
                kind=kind))
            return value

        get_fn = NativeFunction(getter, name=f"get {name}",
                                proto=window.realm.function_prototype,
                                masquerade_name=name)
        target.properties[name] = PropertyDescriptor.accessor(
            get=get_fn, enumerable=(kind == "honey"))

    # ------------------------------------------------------------------
    def collected_scripts(self) -> List[Tuple[str, str]]:
        """(script_url, source) of every saved javascript body."""
        if self.http_instrument is None:
            return []
        return [(script_url, source)
                for script_url, content_type, source
                in self.http_instrument.saved_bodies
                if "javascript" in content_type]

    def script_refs(self, batch: Any) -> List[Tuple[str, str]]:
        """(script_url, sha256) pairs, bodies added to *batch*.

        *batch* is a :class:`repro.corpus.SiteBatch`; the returned
        refs are the content addresses evidence carries instead of
        raw sources.
        """
        return [(script_url, batch.add(source))
                for script_url, source in self.collected_scripts()]

    # ------------------------------------------------------------------
    def residue_accesses(self) -> List[HoneyAccess]:
        return [a for a in self.honey_accesses if a.kind == "residue"]

    def honey_hits_by_script(self) -> Dict[str, Set[str]]:
        """script_url -> set of honey property names it touched."""
        out: Dict[str, Set[str]] = {}
        for access in self.honey_accesses:
            if access.kind == "honey":
                out.setdefault(access.script_url,
                               set()).add(access.property_name)
        return out

    def clear_records(self) -> None:
        super().clear_records()
        self.honey_accesses.clear()
