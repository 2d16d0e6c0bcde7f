"""Web execution bundles: record/replay archival crawls.

A bundle is a self-contained, content-addressed archive of one crawl:
every fetched resource (bodies and scripts deduped by sha256 into a
corpus-backed blob store), every redirect hop, each visit's JS-call
trace, and the per-site detector verdicts. Record one with
``repro crawl --record DIR`` (or ``repro scan --record DIR``), replay
it — no live synthetic web, full instrumentation re-executed — with
``--replay DIR``, and score the replay against the recording with
``repro fidelity ORIGINAL REPLAY``. For verdict re-checks that don't
need browser re-execution (new pattern set, changed classifier),
``--replay DIR --offline`` re-runs only the analysis half over the
archived evidence — orders of magnitude faster than a live scan.
"""

from repro.bundles.bundle import (
    BUNDLE_FORMAT,
    Bundle,
    BundleError,
    BundleVisit,
    BundleWriter,
    IncompleteBundleError,
    is_bundle_dir,
)
from repro.bundles.fidelity import diff_bundles, render_fidelity_report
from repro.bundles.reanalyze import reanalyze_bundle, reanalyze_path
from repro.bundles.record import BundleCapture
from repro.bundles.replay import ReplayNetwork, ReplayWeb

__all__ = [
    "BUNDLE_FORMAT",
    "Bundle",
    "BundleCapture",
    "BundleError",
    "BundleVisit",
    "BundleWriter",
    "IncompleteBundleError",
    "ReplayNetwork",
    "ReplayWeb",
    "diff_bundles",
    "is_bundle_dir",
    "reanalyze_bundle",
    "reanalyze_path",
    "render_fidelity_report",
]
