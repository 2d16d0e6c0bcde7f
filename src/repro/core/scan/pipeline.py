"""The full scan pipeline (paper Sec. 4).

Visits every site's front page (and optionally up to three same-site
subpages selected by the eTLD+1 rule), collects scripts and dynamic
evidence through the :class:`ScanExtension`, classifies each site, and
derives the paper's tables and figures:

* Table 5  — static / dynamic / union detector counts, with and
  without false positives / inconclusive iterators;
* Table 6  — OpenWPM-residue probing sites per provider and property;
* Table 7  — third-party detector hosting domains;
* Table 11 — front-page webdriver rates;
* Table 12 — first-party vendor attribution;
* Fig. 3   — front vs subpage detection per rank bucket;
* Fig. 4   — front-page static/dynamic overlap;
* Fig. 5   — categories of sites with first-/third-party detectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.browser.browser import Browser
from repro.browser.profiles import openwpm_profile
from repro.core.scan.classify import (
    SiteClassification,
    VisitEvidence,
    classify_site,
)
from repro.core.scan.dynamic_analysis import ScanExtension
from repro.corpus import ScriptCorpus, SiteBatch, corpus_path_for
from repro.net.url import URL, etld_plus_one, same_site
from repro.obs.telemetry import Telemetry, coalesce
from repro.sched.jobs import COMPLETED
from repro.sched.settle import COMPLETE, RETRY, Broker
from repro.web.world import SyntheticWeb

#: Subpage budget per site (paper Sec. 4.1.2).
MAX_SUBPAGES = 3


@dataclass
class ScanDataset:
    """All per-site classifications plus corpus-level bookkeeping."""

    front_only: Dict[str, SiteClassification] = field(default_factory=dict)
    combined: Dict[str, SiteClassification] = field(default_factory=dict)
    #: Content addresses (sha256) of every distinct script collected;
    #: resolve bodies through :attr:`corpus` when sources are needed.
    unique_scripts: Set[str] = field(default_factory=set)
    visited_sites: int = 0
    subpage_visits: int = 0
    #: Raw per-site evidence, kept so ablations can re-classify the
    #: same crawl under different pipeline settings without recrawling.
    #: Script entries are (script_url, sha256) into :attr:`corpus`.
    evidence: Dict[str, List[VisitEvidence]] = field(default_factory=dict)
    #: The content-addressed store backing :attr:`evidence`.
    corpus: Optional[ScriptCorpus] = None

    def add_site(self, domain: str, front: SiteClassification,
                 combined: SiteClassification,
                 evidences: List[VisitEvidence]) -> None:
        """Fold one scanned site in: its front-page and combined
        verdicts, its evidence (front page first), and its scripts."""
        self.front_only[domain] = front
        self.combined[domain] = combined
        self.evidence[domain] = evidences
        self.subpage_visits += max(0, len(evidences) - 1)
        self.visited_sites += 1
        for visit in evidences:
            for _, digest in visit.scripts:
                self.unique_scripts.add(digest)

    def script_source(self, digest: str) -> str:
        """Resolve one collected script's body by content address."""
        if self.corpus is None:
            raise RuntimeError("dataset has no corpus attached")
        return self.corpus.source(digest)

    def unique_script_sources(self) -> Dict[str, str]:
        """hash -> source for every distinct collected script."""
        return {digest: self.script_source(digest)
                for digest in sorted(self.unique_scripts)}

    def reclassify(self, use_honey: bool = True,
                   preprocess_static: bool = True,
                   max_visits: Optional[int] = None
                   ) -> Dict[str, SiteClassification]:
        """Re-run classification over the stored evidence.

        ``max_visits`` truncates each site's visit list (1 = front page
        only), enabling the subpage-depth ablation. Static verdicts
        resolve through the corpus's memoized analysis cache, so
        ablation sweeps re-scan each unique script at most once per
        ``preprocess`` setting.
        """
        out: Dict[str, SiteClassification] = {}
        for domain, visits in self.evidence.items():
            subset = visits if max_visits is None else visits[:max_visits]
            out[domain] = classify_site(
                domain, subset, use_honey=use_honey,
                preprocess_static=preprocess_static,
                corpus=self.corpus)
        return out

    # ------------------------------------------------------------------
    # Table 5
    # ------------------------------------------------------------------
    def table5(self) -> Dict[str, Dict[str, int]]:
        counts = {
            "static": 0, "dynamic": 0, "union": 0,
            "static_clean": 0, "dynamic_clean": 0, "union_clean": 0,
        }
        for c in self.combined.values():
            counts["static"] += c.static_identified
            counts["dynamic"] += c.dynamic_identified
            counts["union"] += c.identified_union
            counts["static_clean"] += c.static_clean
            counts["dynamic_clean"] += c.dynamic_clean
            counts["union_clean"] += c.clean_union
        return {"identified": {
                    "static": counts["static"],
                    "dynamic": counts["dynamic"],
                    "union": counts["union"]},
                "clean": {
                    "static": counts["static_clean"],
                    "dynamic": counts["dynamic_clean"],
                    "union": counts["union_clean"]}}

    # ------------------------------------------------------------------
    # Table 6
    # ------------------------------------------------------------------
    def table6(self) -> Dict[str, Dict[str, int]]:
        """Provider host -> {total, per-property counts}."""
        out: Dict[str, Dict[str, int]] = {}
        for classification in self.combined.values():
            per_site: Dict[str, Set[str]] = {}
            for prop, hosts in classification.openwpm_probes.items():
                for host in hosts:
                    provider = etld_plus_one(host)
                    per_site.setdefault(provider, set()).add(prop)
            for provider, props in per_site.items():
                stats = out.setdefault(provider, {"total": 0})
                stats["total"] += 1
                for prop in props:
                    stats[prop] = stats.get(prop, 0) + 1
        return out

    def openwpm_probe_site_count(self) -> int:
        return sum(1 for c in self.combined.values() if c.probes_openwpm)

    # ------------------------------------------------------------------
    # Table 7
    # ------------------------------------------------------------------
    def table7(self, top: int = 10) -> List[Tuple[str, int, float]]:
        counts: Counter = Counter()
        for classification in self.combined.values():
            for host in classification.third_party_hosts:
                counts[host] += 1
        total = sum(counts.values()) or 1
        # third_party_hosts is a set, so most_common's insertion-order
        # tie-break would vary with the per-process hash seed; sort
        # ties by host to keep the table byte-stable across runs.
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(host, count, count / total)
                for host, count in ranked[:top]]

    def inclusion_totals(self) -> Tuple[int, int]:
        """(first-party script count, third-party inclusion count)."""
        first = sum(len(c.first_party_scripts)
                    for c in self.combined.values())
        third = sum(len(c.third_party_hosts)
                    for c in self.combined.values())
        return first, third

    # ------------------------------------------------------------------
    # Table 11 / Fig. 4
    # ------------------------------------------------------------------
    def table11(self) -> Dict[str, float]:
        total = max(self.visited_sites, 1)
        static = sum(c.static_clean for c in self.front_only.values())
        dynamic = sum(c.dynamic_clean for c in self.front_only.values())
        union = sum(c.clean_union for c in self.front_only.values())
        return {"static": static, "dynamic": dynamic, "combined": union,
                "static_rate": static / total,
                "dynamic_rate": dynamic / total,
                "combined_rate": union / total}

    def fig4(self) -> Dict[str, int]:
        static = {d for d, c in self.front_only.items() if c.static_clean}
        dynamic = {d for d, c in self.front_only.items() if c.dynamic_clean}
        return {
            "static_only": len(static - dynamic),
            "dynamic_only": len(dynamic - static),
            "both": len(static & dynamic),
            "static_total": len(static),
            "dynamic_total": len(dynamic),
            "union": len(static | dynamic),
        }

    # ------------------------------------------------------------------
    # Table 12
    # ------------------------------------------------------------------
    def table12(self) -> Dict[str, int]:
        counts: Counter = Counter()
        for classification in self.combined.values():
            if classification.has_first_party \
                    and classification.first_party_vendor:
                counts[classification.first_party_vendor] += 1
        return dict(counts)

    # ------------------------------------------------------------------
    # Fig. 3
    # ------------------------------------------------------------------
    def fig3(self, tranco, bucket_size: int = 1000
             ) -> List[Dict[str, int]]:
        """Detector counts per rank bucket, front vs front+sub."""
        rank_of = {site.domain: site.rank for site in tranco}
        buckets: Dict[int, Dict[str, int]] = {}
        for domain, classification in self.combined.items():
            rank = rank_of.get(domain)
            if rank is None:
                continue
            bucket = (rank - 1) // bucket_size
            stats = buckets.setdefault(
                bucket, {"bucket": bucket, "front": 0, "combined": 0,
                         "sites": 0})
            stats["sites"] += 1
            front = self.front_only.get(domain)
            if front is not None and front.clean_union:
                stats["front"] += 1
            if classification.clean_union:
                stats["combined"] += 1
        return [buckets[key] for key in sorted(buckets)]

    # ------------------------------------------------------------------
    def fig5(self, tranco) -> Dict[str, Counter]:
        from repro.core.scan.categories import tally_categories

        first_party = [d for d, c in self.combined.items()
                       if c.clean_union and c.has_first_party]
        third_party = [d for d, c in self.combined.items()
                       if c.clean_union and c.has_third_party]
        return {"first_party": tally_categories(first_party, tranco),
                "third_party": tally_categories(third_party, tranco)}


class ScanPipeline:
    """Runs the crawl and produces a :class:`ScanDataset`."""

    def __init__(self, web: SyntheticWeb, client_id: str = "scan-client",
                 seed: int = 3, dwell: float = 60.0,
                 max_subpages: int = MAX_SUBPAGES,
                 telemetry: Optional[Telemetry] = None,
                 recorder=None) -> None:
        self.web = web
        self.client_id = client_id
        self.seed = seed
        self.telemetry = coalesce(telemetry)
        #: Optional :class:`repro.bundles.BundleWriter` the
        #: :class:`ScanBroker` archives every completed site into.
        self.recorder = recorder
        #: Capture each site's execution-bundle data on its browser;
        #: the attempt's resolution carries it as ``bundle``.
        self.capture_bundles = recorder is not None
        self.dwell = dwell
        self.max_subpages = max_subpages
        #: The content-addressed script store of the last run().
        self.corpus: Optional[ScriptCorpus] = None

    # ------------------------------------------------------------------
    def run(self, site_limit: Optional[int] = None,
            visit_subpages: bool = True, workers: int = 1,
            queue_path: str = ":memory:",
            resume: bool = False,
            worker_procs: Optional[int] = None,
            world_seed: int = 7,
            journal_dir: Optional[str] = None,
            fault_plan: Optional[object] = None,
            heartbeat_deadline: Optional[float] = None,
            respawn_limit: Optional[int] = None) -> ScanDataset:
        """Scan the corpus; with ``workers > 1`` sites are distributed
        over extra browsers through the crawl scheduler. ``queue_path``
        and ``resume`` expose the scheduler's checkpoint/resume.

        ``worker_procs`` scans through N supervised worker *processes*
        instead (:mod:`repro.sched.procpool`); each rebuilds the
        synthetic world from ``(site_count, world_seed)`` and ships
        each attempt's resolution back to this process's
        :class:`ScanBroker` — or, replaying, opens the bundle
        directory itself. Requires a file-backed ``queue_path``;
        incompatible with ``workers``.

        Each site is visited with a fresh per-site browser identity
        (:meth:`Browser.begin_site`, the same site start a crawl
        attempt makes), so the collected script corpus and every
        derived table are independent of ``workers``, of threads or
        processes, and of scheduling order.

        Every mode runs an attempt through :meth:`scan_job` and settles
        it through one :class:`ScanBroker`, which lands a completed
        site's occurrence rows in the ``<queue_path>.corpus``
        content-addressed store and its evidence in the
        ``<queue_path>.scan`` sidecar before the queue marks it
        completed. ``resume=True`` reloads both — the returned dataset
        covers *every* completed site, not just the ones visited by
        this process — and first retracts what an attempt that died
        before its completion committed left behind. Resuming a queue
        whose sidecar is missing evidence for a completed site — or
        whose corpus is missing a referenced script body — raises
        rather than silently returning a partial (or silently
        mis-classified) dataset.
        """
        from repro.core.scan.results_store import (
            ScanResultStore,
            store_path_for,
        )
        from repro.sched import CrawlScheduler

        if worker_procs is not None:
            if workers != 1:
                raise ValueError(
                    "workers and worker_procs are mutually exclusive")
            if queue_path == ":memory:":
                raise ValueError(
                    "worker_procs requires a file-backed queue (worker "
                    "processes cannot share an in-memory queue)")
        corpus = ScriptCorpus(corpus_path_for(queue_path))
        if not resume:
            corpus.clear()
        self.corpus = corpus
        if worker_procs is None:
            self.seed_from_bundle(corpus)
        dataset = ScanDataset(corpus=corpus)
        configs = self.web.configs if site_limit is None \
            else self.web.configs[:site_limit]
        store = ScanResultStore(store_path_for(queue_path))
        if not resume:
            store.clear()
        clock = None
        if worker_procs is not None:
            # Lease deadlines must mean the same instant to every
            # claimant process; per-process virtual clocks do not.
            from repro.obs.clock import WallClock

            clock = WallClock()
        scheduler = CrawlScheduler(queue_path, resume=resume,
                                   seed=self.seed, max_attempts=1,
                                   telemetry=self.telemetry,
                                   clock=clock)
        scheduler.enqueue([config.domain for config in configs])
        if resume:
            self._restore_completed(scheduler, store, configs, dataset)
            # Bodies collected by earlier runs are known content: warm
            # the engine's hash-keyed AST/closure cache so any script
            # shared with a still-pending site skips parse+compile.
            corpus.precompile()
        broker = ScanBroker(scheduler.queue, self.telemetry, corpus,
                            store, dataset, recorder=self.recorder)
        try:
            if worker_procs is not None:
                from repro.sched.procpool import run_process_scan

                run_process_scan(
                    self, scheduler, broker,
                    queue_path=queue_path, worker_procs=worker_procs,
                    world_seed=world_seed,
                    visit_subpages=visit_subpages,
                    fault_plan=fault_plan, journal_dir=journal_dir,
                    heartbeat_deadline=heartbeat_deadline,
                    respawn_limit=respawn_limit)
            else:
                from repro.jsengine.interpreter import (
                    export_cache_metrics,
                )

                try:
                    scheduler.run(
                        lambda job, index: self.scan_job(
                            job.site_url, corpus, visit_subpages),
                        workers=workers, broker=broker)
                finally:
                    export_cache_metrics(self.telemetry.metrics)
            if self.recorder is not None:
                # Archive the memoized analysis verdicts so replay can
                # seed its own cache without re-scanning sources.
                self.recorder.import_analysis_cache(
                    corpus.export_analysis_cache())
        finally:
            scheduler.close()
            store.close()
        return dataset

    def seed_from_bundle(self, corpus: ScriptCorpus) -> None:
        """Replaying from an archive: seed *corpus*'s memoized
        static-analysis verdicts from the bundle (keyed by pattern-set
        version, so stale rows simply never match) and warm the AST
        cache for every archived script."""
        bundle = getattr(self.web, "bundle", None)
        if bundle is None:
            return
        rows = bundle.store.export_analysis_cache()
        if rows:
            corpus.import_analysis_cache(rows)
            bundle.store.precompile(sorted({row[0] for row in rows}))

    def _restore_completed(self, scheduler, store, configs,
                           dataset: ScanDataset) -> None:
        """Rebuild dataset entries for sites earlier runs completed.

        An attempt that died after its broker landed the site's rows,
        but before the queue marked it completed, leaves those rows
        (and maybe its sidecar evidence) behind; they are retracted
        here, and the site runs again."""
        completed = scheduler.queue.sites(status=COMPLETED)
        settled = set(completed)
        corpus = dataset.corpus
        for site in corpus.sites():
            if site not in settled:
                corpus.retract_site(site)
        for domain in store.domains():
            if domain not in settled:
                store.delete(domain)
        wanted = {config.domain for config in configs}
        completed = [domain for domain in completed if domain in wanted]
        if not completed:
            return
        stored = store.load_all()
        missing = [domain for domain in completed if domain not in stored]
        if missing:
            raise RuntimeError(
                f"cannot resume scan: {len(missing)} completed site(s) "
                f"have no persisted evidence in {store.path!r} "
                f"(e.g. {missing[:3]}); re-run without --resume to "
                "rebuild the dataset from scratch")
        for domain in completed:
            evidences = stored[domain]
            for visit in evidences:
                for script_url, digest in visit.scripts:
                    if not corpus.has(digest):
                        raise RuntimeError(
                            f"cannot resume scan: completed site "
                            f"{domain!r} references script {digest!r} "
                            f"({script_url}) that is missing from the "
                            f"corpus {corpus.path!r}; re-run without "
                            "--resume to rebuild the dataset from "
                            "scratch")
            dataset.add_site(
                domain,
                classify_site(domain, evidences[:1], corpus=corpus),
                classify_site(domain, evidences, corpus=corpus),
                evidences)

    # ------------------------------------------------------------------
    def _site_browser(self, domain: str
                      ) -> Tuple[Browser, ScanExtension]:
        """A fresh browser + extension started on *domain*'s per-site
        identity (:meth:`Browser.begin_site`): each site's served
        content is a pure function of (world, domain, seed), so the
        collected corpus is byte-identical regardless of worker count
        or visit order, and cloaking providers cannot leak one site's
        bot verdict into another site's measurement. A replay
        transport replays the attempt from the site's first archived
        visit.
        """
        extension = ScanExtension()
        browser = Browser(openwpm_profile("ubuntu", "regular"),
                          self.web.network, extension=extension)
        browser.begin_site(domain, self.seed, self.client_id)
        if self.capture_bundles:
            from repro.bundles import BundleCapture

            browser.capture = BundleCapture()
        return browser, extension

    def scan_job(self, domain: str, corpus: ScriptCorpus,
                 visit_subpages: bool, ship_sources: bool = False
                 ) -> Dict[str, Any]:
        """Run one scan attempt for *domain*; returns its resolution.

        A completion carries the site's ``evidences`` (front page
        first) and its ``front`` and ``combined`` classifications. The
        attempt writes script bodies into *corpus* as it goes, but no
        occurrence row: the :class:`ScanBroker` lands those from the
        evidence once the queue accepts the completion. With
        ``ship_sources`` (a worker process, whose *corpus* is its own)
        it also carries the ``bodies`` and ``analysis`` cache rows of
        the scripts it saw, and with ``capture_bundles`` the site's
        bundle capture. A failed attempt is sent back for retry, its
        capture dropped with its browser.
        """
        batch = corpus.site_batch(domain)
        browser, extension = self._site_browser(domain)
        try:
            evidences, front, combined = self._scan_site(
                domain, visit_subpages, batch, browser, extension)
        except Exception as exc:
            return {"kind": RETRY, "error": repr(exc)}
        resolution = {"kind": COMPLETE, "error": "",
                      "evidences": evidences, "front": front,
                      "combined": combined}
        if browser.capture is not None:
            browser.capture.classify(front, combined, evidences)
            resolution["bundle"] = browser.capture.record()
        if ship_sources:
            digests = {digest for evidence in evidences
                       for _, digest in evidence.scripts}
            resolution["bodies"] = {digest: corpus.source(digest)
                                    for digest in sorted(digests)}
            resolution["analysis"] = [
                row for row in corpus.export_analysis_cache()
                if row[0] in digests]
        return resolution

    def _scan_site(self, domain: str, visit_subpages: bool,
                   batch: SiteBatch, browser: Browser,
                   extension: ScanExtension
                   ) -> Tuple[List[VisitEvidence], SiteClassification,
                              SiteClassification]:
        tm = self.telemetry
        corpus = batch.corpus
        with tm.tracer.span("scan_site", domain=domain) as site_span:
            front_evidence = self._visit(f"https://www.{domain}/",
                                         browser, extension, batch)
            evidences = [front_evidence]
            front_classification = classify_site(domain, [front_evidence],
                                                 corpus=corpus)
            if visit_subpages:
                for link in self._select_subpages(front_evidence, browser):
                    evidences.append(self._visit(link, browser,
                                                 extension, batch))
                    tm.metrics.counter("scan_subpage_visits").inc()
            with tm.stage("classify"):
                classification = classify_site(domain, evidences,
                                               corpus=corpus)
            tm.metrics.counter("scan_sites_visited").inc()
            outcome = "identified" if classification.identified_union \
                else "negative"
            tm.metrics.counter("classifier_outcomes",
                               outcome=outcome).inc()
            if classification.clean_union:
                tm.metrics.counter("classifier_outcomes",
                                   outcome="clean").inc()
            site_span.set_attribute("outcome", outcome)
        return evidences, front_classification, classification

    # ------------------------------------------------------------------
    def _visit(self, url: str, browser: Browser,
               extension: ScanExtension, batch: SiteBatch
               ) -> VisitEvidence:
        extension.clear_records()
        # A replay transport positions its visit cursor; a capturing
        # browser opens this visit's capture.
        self.web.network.begin_visit(batch.site, url)
        if browser.capture is not None:
            browser.capture.begin_visit(url)
        with self.telemetry.stage("scan_visit"):
            browser.visit(url, wait=self.dwell)
        evidence = VisitEvidence(page_url=url)
        # Bodies dedup into the content-addressed corpus; evidence
        # carries hashes, one batched write per visit.
        evidence.scripts = extension.script_refs(batch)
        batch.flush_visit()
        if extension.js_instrument is not None:
            for record in extension.js_instrument.records:
                if record.symbol == "navigator.webdriver" \
                        and record.operation == "get":
                    evidence.webdriver_accessors.add(record.script_url)
        for access in extension.residue_accesses():
            evidence.residue_accessors.setdefault(
                access.script_url, set()).add(access.property_name)
        evidence.honey_hits = extension.honey_hits_by_script()
        self.web.network.end_visit()
        if browser.capture is not None:
            browser.capture.end_visit(extension.js_instrument.records
                                      if extension.js_instrument
                                      is not None else [])
        return evidence

    def _select_subpages(self, evidence: VisitEvidence,
                         browser: Browser) -> List[str]:
        """Same-site links only (eTLD+1), after following redirects."""
        result_links: List[str] = []
        base = URL.parse(evidence.page_url)
        page = None
        top = browser._top_window  # the visit that produced evidence
        if top is not None and top.page is not None:
            page = top.page
        if page is None:
            return result_links
        for href in page.links():
            try:
                target = URL.parse(href, base=base)
            except ValueError:
                continue
            if not same_site(target.host, base.host):
                continue
            result_links.append(str(target))
            if len(result_links) >= self.max_subpages:
                break
        return result_links


class ScanBroker(Broker):
    """The one writer of a scan's corpus rows, sidecar and dataset.

    Inline, thread and process scans all hand it :meth:`ScanPipeline.scan_job`
    resolutions. Inside the queue transition it lands a completed
    site's occurrence rows (one corpus transaction), then its
    evidence, then — recording — its bundle site, so "completed in the
    queue" always implies all are on disk; once the completion has
    committed it folds the attempt's own classifications into the
    dataset. A voided or failed attempt touches none of them.
    """

    def __init__(self, queue, telemetry, corpus: ScriptCorpus, store,
                 dataset: ScanDataset, recorder=None) -> None:
        super().__init__(queue, telemetry)
        self.corpus = corpus
        self.store = store
        self.dataset = dataset
        #: Optional :class:`repro.bundles.BundleWriter`.
        self.recorder = recorder

    def _stage(self, message, state):
        if state != COMPLETED:
            return
        site = message["site_url"]
        evidences = message["evidences"]
        SiteBatch(self.corpus, site).commit(
            evidences, message.get("bodies"), message.get("analysis", ()))
        try:
            self.store.save(site, evidences)
            if self.recorder is not None and "bundle" in message:
                self.recorder.write_site(site, **message["bundle"])
        except Exception:
            self.corpus.retract_site(site)
            raise

    def _settled(self, message, state, staged):
        if state == COMPLETED:
            self.dataset.add_site(message["site_url"], message["front"],
                                  message["combined"],
                                  message["evidences"])
