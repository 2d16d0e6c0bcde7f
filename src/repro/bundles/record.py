"""Live-crawl recording: each browser captures, the broker writes.

A recording browser carries a :class:`BundleCapture`
(``Browser.capture``; ``None`` when not recording, so the hot-path
cost is one attribute check per fetch). Its two ``network.fetch`` call
sites feed every fetch's hop chain in; the crawl or scan attempt adds
each visit's JS-call trace and the site's verdict, and returns
:meth:`BundleCapture.record` in its resolution, beside its envelope or
evidence. A process worker ships it over its pipe like any other
resolution field, so recording works in every pool mode.

Nothing is written during the attempt. The broker — the crawl's
``TaskManager.settle_visit`` or the scan's ``ScanBroker`` — hands a
standing completion's record to
:meth:`~repro.bundles.bundle.BundleWriter.write_site` inside the queue
transition, and drops the capture of a voided, retried or failed
attempt. The bundle therefore holds exactly the sites the queue
completed, whole; its manifest stays ``status: recording`` until the
run finalizes it, so replay refuses a crash-torn archive.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bundles.codec import (
    classification_to_dict,
    encode_hops,
    encode_trace,
)
from repro.corpus.store import script_hash


class BundleCapture:
    """What one browser's visits to one site give its bundle."""

    def __init__(self) -> None:
        #: One dict per visit, in :meth:`BundleWriter.write_site`'s
        #: shape; an attempt that fails mid-visit is dropped whole.
        self.visits: List[Dict[str, object]] = []
        self.verdict: Optional[Dict[str, object]] = None
        self.evidence: Optional[List[Dict[str, object]]] = None

    def begin_visit(self, url: str) -> None:
        self.visits.append({"url": url, "exchanges": [], "blobs": {},
                            "trace": []})

    def on_fetch(self, hops) -> None:
        """Archive one fetch's full hop chain, bodies by content
        address."""
        visit = self.visits[-1]
        blobs = visit["blobs"]

        def put(text: str) -> str:
            digest = script_hash(text)
            blobs[digest] = text
            return digest

        visit["exchanges"].append({"hops": encode_hops(hops, put)})

    def end_visit(self, trace) -> None:
        self.visits[-1]["trace"] = encode_trace(trace)

    def classify(self, front, combined, evidence) -> None:
        """Attach a scanned site's front-page and combined
        classifications and its raw evidence as the verdict."""
        from repro.core.scan.results_store import evidence_to_dict

        self.verdict = {"front": classification_to_dict(front),
                        "combined": classification_to_dict(combined)}
        self.evidence = [evidence_to_dict(item) for item in evidence]

    def record(self) -> Dict[str, object]:
        """The keyword arguments of ``BundleWriter.write_site``, bar
        the site."""
        return {"visits": self.visits, "verdict": self.verdict,
                "evidence": self.evidence}
