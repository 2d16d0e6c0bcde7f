"""Offline re-analysis: detector pipeline over an archived bundle.

Full replay (:class:`~repro.bundles.replay.ReplayNetwork`) re-executes
the browser over archived responses — maximum fidelity, but it pays
for JS instrumentation and page execution all over again. This module
is the fast tier the Web Execution Bundles model exists for: the
dynamic evidence (JS-call traces, honey hits, residue accesses) was
already captured at record time, so re-checking verdicts under a new
pattern set or changed classifier only needs the *analysis* half of
the pipeline. ``reanalyze_bundle`` rebuilds each site's
:class:`~repro.core.scan.classify.VisitEvidence` from the archive and
re-runs ``classify_site`` against the bundle's own content-addressed
store — no synthetic web, no servers, no network layer, no browser.

Classification is a pure function of (evidence, script sources,
pattern set); with an unchanged pattern set the result is
byte-identical to the recording crawl's dataset, and an *edited*
pattern set simply misses the archived analysis cache and re-scans
the stored sources — which is the whole point.
"""

from __future__ import annotations

from repro.bundles.bundle import Bundle, BundleError
from repro.obs.telemetry import coalesce


def reanalyze_bundle(bundle: Bundle, use_honey: bool = True,
                     preprocess_static: bool = True,
                     telemetry=None):
    """Re-run classification over every archived site.

    Returns a :class:`~repro.core.scan.pipeline.ScanDataset` whose
    tables are byte-identical to the recording scan's (unchanged
    patterns), backed by the bundle's store as its corpus. Raises
    :class:`BundleError` for bundles that carry no scan evidence
    (crawl-kind recordings archive exchanges and traces, but not the
    scan pipeline's per-visit evidence).
    """
    from repro.core.scan.classify import classify_site
    from repro.core.scan.pipeline import ScanDataset
    from repro.core.scan.results_store import evidence_from_dict

    tm = coalesce(telemetry)
    corpus = bundle.store
    dataset = ScanDataset(corpus=corpus)
    sites = bundle.recorded_sites()
    for site in sites:
        raw = bundle.evidence(site)
        if raw is None:
            raise BundleError(
                f"bundle {bundle.path!r} has no archived scan evidence "
                f"for {site!r} (kind {bundle.kind!r}); offline "
                "re-analysis needs a bundle recorded by `repro scan "
                "--record` — use full replay (`--replay` without "
                "--offline) to re-execute this one")
        evidences = [evidence_from_dict(item) for item in raw]
        front = classify_site(site, evidences[:1], use_honey=use_honey,
                              preprocess_static=preprocess_static,
                              corpus=corpus)
        combined = classify_site(site, evidences, use_honey=use_honey,
                                 preprocess_static=preprocess_static,
                                 corpus=corpus)
        dataset.add_site(site, front, combined, evidences)
        tm.metrics.counter("bundle_sites_reanalyzed").inc()
    tm.journal.emit("bundle_reanalyzed", path=bundle.path,
                    sites=len(sites))
    return dataset


def reanalyze_path(path: str, use_honey: bool = True,
                   preprocess_static: bool = True, telemetry=None,
                   allow_incomplete: bool = False):
    """Convenience wrapper: open *path* and re-analyse it."""
    bundle = Bundle(path, allow_incomplete=allow_incomplete)
    return bundle, reanalyze_bundle(
        bundle, use_honey=use_honey,
        preprocess_static=preprocess_static, telemetry=telemetry)


__all__ = ["reanalyze_bundle", "reanalyze_path"]
