"""The benchmark's workloads (``serve`` is in ``serveload.py``).

Each workload builds its own inputs from the seed, runs identical
passes and checks every pass's outputs outside the timed window. A
pass starts from clean state: a new crawl database, queue and
``TaskManager`` (or ``ScanPipeline``), an empty AST cache, and a full
garbage collection before the clock starts. No faults are injected
(``crash_probability=0``): the crash draws depend on thread
interleaving, so with faults on the failure count would be noise.
Everything not named here keeps the CLI's defaults (telemetry on,
journal off, dwell 1 s). "Throughput" below means items_per_ref_cpu_s
and the wall-clock items_per_s.

This module imports the program lazily so that ``run.py`` can check
for the program's sources before anything imports them.
"""

from __future__ import annotations

import gc
import os
import random
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from reference import Reference
from tracer import Tracer


@dataclass
class PassResult:
    items: int
    seconds: float
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    disk_bytes: int = 0
    sites: int = 0


def _remove(*paths: str) -> None:
    for path in paths:
        for suffix in ("", "-wal", "-shm", "-journal"):
            try:
                os.remove(path + suffix)
            except FileNotFoundError:
                pass


def _file_bytes(path: str) -> int:
    return sum(os.path.getsize(path + suffix)
               for suffix in ("", "-wal")
               if os.path.exists(path + suffix))


def cpu_ticks() -> List[int]:
    """The machine-wide CPU time counters of ``/proc/stat``."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: List[int]) -> float:
    """Share of the machine's CPU time since *before* that the
    hypervisor gave to other guests ("steal")."""
    ticks = [b - a for a, b in zip(before, cpu_ticks())]
    return ticks[7] / sum(ticks) if sum(ticks) else 0.0


def traced_pass(index: int) -> bool:
    """Whether pass *index* of a traced run is traced.

    Pass 0 warms up (first calls, caches) and counts on neither side.
    After it come blocks of four in the order untraced, traced, traced,
    untraced, so that a drift in the machine's speed over a block
    weighs on both sides alike; each block gives one overhead figure.
    """
    return index > 0 and (index - 1) % 4 in (1, 2)


class ItemClock:
    """Per-item wall time, taken around the item call in every pass,
    traced or not, so end-to-end latencies always come from the same
    code path. After an item's time is taken, a chunk of the reference
    loop may run (see ``reference.py``), outside the item and its
    spans."""

    def __init__(self, reference: Reference) -> None:
        self.samples: List[float] = []
        self._local = threading.local()
        self.reference = reference

    def start(self) -> None:
        self._local.start = time.perf_counter()

    def stop(self) -> None:
        self.samples.append(time.perf_counter() - self._local.start)
        self.reference.maybe_run()


def wrap_common_layers(tracer: Tracer) -> None:
    """Spans for the layers every page visit goes through."""
    from repro.browser.browser import Browser
    from repro.browser.window import BrowserWindow
    from repro.net.network import Network
    from repro.openwpm.instruments.js_instrument import JSInstrument
    from repro.openwpm.storage import StorageController
    from repro.sched.jobs import JobQueue
    from repro.serve.rollups import RollupMaintainer

    tracer.wrap(Browser, "visit", "browser.visit")
    tracer.wrap(BrowserWindow, "__init__", "browser.window")
    tracer.wrap(BrowserWindow, "run_script", "jsengine.exec")
    tracer.wrap(BrowserWindow, "run_script_with_scope", "jsengine.exec")
    tracer.wrap(JSInstrument, "instrument_window",
                "openwpm.instruments.install")
    tracer.count_calls(JSInstrument, "_on_record",
                       "openwpm.instruments.records")
    tracer.wrap(Network, "fetch", "net.fetch", counter="net.fetches")
    for attr in ("begin_visit", "end_visit", "commit"):
        tracer.wrap(StorageController, attr, "openwpm.storage.write")
    for attr in sorted(StorageController.__dict__):
        if attr.startswith("record_"):
            tracer.wrap(StorageController, attr, "openwpm.storage.write",
                        counter="openwpm.storage.rows")
    for attr in ("visit_committed", "visit_retracted", "content_inserted",
                 "crash_recorded", "failed_recorded", "failed_retracted",
                 "quarantine_recorded", "quarantine_retracted"):
        tracer.wrap(RollupMaintainer, attr, "serve.rollups.fold")
    tracer.wrap(JobQueue, "claim", "sched.queue", counter="sched.claims")
    tracer.wrap(JobQueue, "complete", "sched.queue", counter="sched.done")
    tracer.wrap(JobQueue, "fail", "sched.queue")


def page_weight_sample(configs: List[Any], count: int) -> List[Any]:
    """A systematic sample of *count* sites, evenly spread over page
    weight, in rank order.

    The seed draws the world and so which sites a pass visits, but the
    mix of light and heavy pages follows the whole world's rather than
    the luck of a small draw. CSP-blocking sites get exactly their
    expected share: each brings seven frames the JS instrument cannot
    enter, and ``JSInstrument.failed_windows`` keeps every such window
    alive for the rest of a crawl, so memory and collector time grow
    with their count. Left to chance, that count among 100 sites is
    binomial with a coefficient of variation near 35%, which would
    swamp every other difference between two runs. Within each group,
    sites are spread over detector scripts, frames per page and
    trackers, the other things a visit's cost follows.
    """
    from repro.web.sitegen import P_CSP_BLOCKING

    def spread(group: List[Any], wanted: int) -> List[Any]:
        ordered = sorted(group, key=lambda c: (
            c.has_detector, c.n_widget_iframes + c.has_ad_iframe,
            len(c.trackers), c.site.rank))
        if len(ordered) < wanted:
            raise RuntimeError("world too small for the site mix")
        step = len(ordered) / wanted
        return [ordered[int(step * (index + 0.5))]
                for index in range(wanted)]

    blocking = round(P_CSP_BLOCKING * count)
    sample = spread([c for c in configs if c.csp_blocking], blocking)
    sample += spread([c for c in configs if not c.csp_blocking],
                     count - blocking)
    return sorted(sample, key=lambda c: c.site.rank)


class Workload:
    """One benchmark workload: inputs from a seed, identical passes."""

    name = ""

    def __init__(self, seed: int, workdir: str, inputs: str) -> None:
        self.seed = seed
        self.workdir = workdir
        #: File holding the inputs ``make_inputs`` drew from the seed.
        self.inputs = inputs
        #: Set by the runner; the workload switches it on only for the
        #: timed part of a traced pass.
        self.tracer = Tracer()
        self.traced = False
        self.ast_stats: Dict[str, int] = {}
        self.steal_share = 0.0
        self.cpu_seconds = 0.0

    def _timing(self, on: bool) -> None:
        """Bracket the timed part of a pass (the tracer records only
        inside it; the AST cache counters and the machine's CPU counters
        are read at its ends)."""
        self.tracer.active = on and self.traced
        if on:
            self._ticks = cpu_ticks()
            self._cpu = time.process_time()
        else:
            from repro.jsengine.interpreter import ast_cache_stats

            self.cpu_seconds = time.process_time() - self._cpu
            self.ast_stats = ast_cache_stats()
            # A noisy-neighbour gauge for the pass.
            self.steal_share = steal_share(self._ticks)

    def make_inputs(self) -> None:
        """Draw the inputs from the seed into ``self.inputs`` (once per
        run, in its own process, outside the measured set-up)."""

    def prepare(self) -> None:
        """Load the inputs and build what the program needs before its
        first item (part of the measured set-up)."""

    def item_calls(self) -> tuple:
        """``(begin, end)``: the ``(owner, attr)`` calls that bound an item."""
        raise NotImplementedError

    def wrap_layers(self, tracer: Tracer) -> None:
        wrap_common_layers(tracer)

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError


class _Crawl(Workload):
    """A scheduled crawl through ``run_telemetry_crawl``, the function
    behind ``repro crawl``; the pass time is its ``crawl_scheduled``
    call."""

    sites = 0
    #: Sites in the world the crawl's sites come from (0: just those).
    world_size = 0
    workers = 1
    web = "lab"
    js_instrument = False

    def make_inputs(self) -> None:
        with open(self.inputs, "w") as handle:
            handle.write("\n".join(self.urls()) + "\n")

    def prepare(self) -> None:
        with open(self.inputs) as handle:
            self.site_urls = handle.read().split()

    def urls(self) -> List[str]:
        raise NotImplementedError

    def item_calls(self) -> tuple:
        from repro.openwpm.task_manager import TaskManager

        call = (TaskManager, "execute_command_sequence")
        return call, call

    def _timed_crawl(self, box: Dict[str, float]) -> Callable[[], None]:
        """Time ``TaskManager.crawl_scheduled`` after a full collection."""
        from repro.openwpm.task_manager import TaskManager

        original = TaskManager.__dict__["crawl_scheduled"]

        def timed(manager: Any, *args: Any, **kwargs: Any) -> Any:
            gc.collect()
            self._timing(True)
            start = time.perf_counter()
            try:
                return original(manager, *args, **kwargs)
            finally:
                box["seconds"] = time.perf_counter() - start
                self._timing(False)

        TaskManager.crawl_scheduled = timed

        def restore() -> None:
            TaskManager.crawl_scheduled = original

        return restore

    def run_pass(self, index: int) -> PassResult:
        from repro.jsengine.interpreter import clear_ast_cache
        from repro.obs.runner import run_telemetry_crawl

        db = os.path.join(self.workdir, f"{self.name}-{index}.sqlite")
        queue = db + ".queue"
        _remove(db, queue)
        clear_ast_cache()
        box: Dict[str, float] = {}
        restore = self._timed_crawl(box)
        try:
            result = run_telemetry_crawl(
                site_count=self.world_size or self.sites, seed=self.seed,
                database_path=db,
                crash_probability=0.0, browsers=self.workers,
                js_instrument=self.js_instrument, web=self.web,
                workers=self.workers, queue_path=queue,
                urls=list(self.site_urls))
        finally:
            restore()
        expected = list(self.site_urls)
        drained = bool(result.report.drained)
        result.close()
        outcome = PassResult(items=len(expected), seconds=box["seconds"],
                             sites=len(expected))
        if not drained:
            outcome.errors.append("queue not drained")
        self._check(db, expected, outcome)
        outcome.disk_bytes = _file_bytes(db)
        _remove(db, queue)
        return outcome

    @staticmethod
    def _check(db: str, expected: List[str], outcome: PassResult) -> None:
        """Every site ends exactly once; rollups equal the batch twin."""
        from repro.serve import verify

        connection = sqlite3.connect(db)
        try:
            visited = [row[0] for row in connection.execute(
                "SELECT site_url FROM site_visits")]
            failed = [row[0] for row in connection.execute(
                "SELECT site_url FROM failed_visits")]
            report = verify(connection)
        finally:
            connection.close()
        ended = visited + failed
        outcome.failed = len(failed)
        if sorted(ended) != sorted(expected):
            missing = len(set(expected) - set(ended))
            outcome.failed += missing
            outcome.errors.append(
                f"{len(ended)} site endings for {len(expected)} sites "
                f"({missing} missing)")
        if not report["ok"]:
            outcome.errors.append(
                f"rollups.verify: {len(report['mismatches'])} mismatches")


class CrawlJS(_Crawl):
    """crawl_js: the JS-instrumented crawl of the synthetic Tranco web.

    Why: the measured hot path (window build and JS-instrument install
    dominate, and GC takes about half the wall time). One worker, a
    file-backed DB and queue.
    Should move: browser.window_ms, browser.visit_ms,
    openwpm.instruments.install_ms, jsengine.exec_ms, net.fetch_ms and
    gc.pause_ms show here in throughput and the latencies.
    Should stay flat: storage is about 2% of the time, so a storage or
    rollup change should not show here.

    The pass visits a page-weight sample of a larger world (see
    ``page_weight_sample``). The sample is drawn once per run, before
    set-up is timed; each pass's ``run_telemetry_crawl`` then builds
    that world itself, as ``repro crawl`` would, so set-up holds one
    world build, the program's own.
    """

    name = "crawl_js"
    sites = 100
    #: The world the sample is drawn from.
    world_size = 1000
    workers = 1
    web = "tranco"
    js_instrument = True

    def urls(self) -> List[str]:
        from repro.web import build_world

        sample = page_weight_sample(
            build_world(site_count=self.world_size, seed=self.seed).configs,
            self.sites)
        return [f"https://www.{config.domain}/" for config in sample]


class CrawlLab(_Crawl):
    """crawl_lab: blank lab pages, HTTP and cookie instruments only.

    Why: the write side of storage. Two worker threads and a
    file-backed WAL DB and queue make SQLite commits, queue
    claim/complete and rollup folds a large share of each visit; it is
    the only multi-threaded workload, so it alone measures the
    ``sched.pool`` coordination.
    Should move: openwpm.storage.write_ms, serve.rollups.fold_ms,
    sched.queue_ms and browser.window_ms show in throughput and
    db_kb_per_site.
    Should stay flat: it bypasses JSInstrument, so an instrument or
    JS-engine change should not show here.
    """

    name = "crawl_lab"
    sites = 500
    workers = 2
    web = "lab"

    def urls(self) -> List[str]:
        rng = random.Random(self.seed)
        return [f"https://lab.test/{rng.getrandbits(48):012x}/p{i:05d}"
                for i in range(self.sites)]


class Scan(Workload):
    """scan: the Sec. 4 detector scan with subpages.

    Why: the paper's main measurement. It runs detector scripts, honey
    properties, static analysis, classification and corpus
    deduplication. One worker and a file-backed queue, so the ``.scan``
    and ``.corpus`` sidecars are written.
    Should move: core.scan.static_ms, core.scan.classify_ms,
    corpus.write_ms, jsengine.exec_ms and gc.pause_ms show in
    throughput and the tail latency.
    Should stay flat: the AST cache is warm after the first few sites
    (a few dozen distinct scripts), so a parse-cache change should not
    show here.
    """

    name = "scan"
    sites = 30
    #: The world the page-weight sample is drawn from.
    world_size = 300

    def prepare(self) -> None:
        from repro.web import build_world

        self.world = build_world(site_count=self.world_size, seed=self.seed)
        # The scan covers every configured site of its world: the sample.
        self.world.configs = page_weight_sample(self.world.configs,
                                                self.sites)

    def item_calls(self) -> tuple:
        from repro.core.scan.results_store import ScanResultStore
        from repro.corpus.store import ScriptCorpus

        return (ScriptCorpus, "site_batch"), (ScanResultStore, "save")

    def wrap_layers(self, tracer: Tracer) -> None:
        from repro.core.scan import classify, static_analysis
        from repro.core.scan.results_store import ScanResultStore
        from repro.corpus.store import ScriptCorpus, SiteBatch

        wrap_common_layers(tracer)
        tracer.wrap_function(static_analysis, "scan_script",
                             "core.scan.static")
        tracer.wrap(ScriptCorpus, "scan", "core.scan.static")
        tracer.wrap_function(classify, "classify_site",
                             "core.scan.classify")
        tracer.wrap(SiteBatch, "flush_visit", "corpus.write")
        tracer.wrap(SiteBatch, "commit", "corpus.write")
        # save() closes the item span, so its span sits inside the item.
        tracer.wrap(ScanResultStore, "save", "corpus.write")

    def queue_path(self, index: int) -> str:
        return os.path.join(self.workdir, f"scan-{index}.queue")

    def run_pass(self, index: int) -> PassResult:
        from repro.core.scan import ScanPipeline
        from repro.core.scan.results_store import store_path_for
        from repro.corpus import corpus_path_for
        from repro.jsengine.interpreter import clear_ast_cache

        queue = self.queue_path(index)
        sidecars = (store_path_for(queue), corpus_path_for(queue))
        _remove(queue, *sidecars)
        self.world.reset_intel()
        clear_ast_cache()
        pipeline = ScanPipeline(self.world)
        gc.collect()
        self._timing(True)
        start = time.perf_counter()
        dataset = pipeline.run(visit_subpages=True, workers=1,
                               queue_path=queue, world_seed=self.seed)
        seconds = time.perf_counter() - start
        self._timing(False)
        outcome = PassResult(items=self.sites, seconds=seconds,
                             sites=self.sites)
        dataset.corpus.close()
        self._check(queue, dataset, outcome)
        outcome.disk_bytes = sum(_file_bytes(path) for path in sidecars)
        _remove(queue, *sidecars)
        return outcome

    def _check(self, queue: str, dataset: Any,
               outcome: PassResult) -> None:
        """Site count, per-site evidence and Table 5 recomputed from the
        ``.scan`` sidecar."""
        from repro.core.scan import classify_site
        from repro.core.scan.results_store import (
            ScanResultStore,
            evidence_to_dict,
            store_path_for,
        )
        from repro.corpus import ScriptCorpus, corpus_path_for

        store = ScanResultStore(store_path_for(queue))
        corpus = ScriptCorpus(corpus_path_for(queue))
        try:
            stored = store.load_all()
            identified = {"static": 0, "dynamic": 0, "union": 0}
            clean = {"static": 0, "dynamic": 0, "union": 0}
            for domain, evidences in stored.items():
                verdict = classify_site(domain, evidences, corpus=corpus)
                identified["static"] += verdict.static_identified
                identified["dynamic"] += verdict.dynamic_identified
                identified["union"] += verdict.identified_union
                clean["static"] += verdict.static_clean
                clean["dynamic"] += verdict.dynamic_clean
                clean["union"] += verdict.clean_union
        finally:
            store.close()
            corpus.close()
        missing = self.sites - len(stored)
        if missing or dataset.visited_sites != self.sites:
            outcome.failed += max(missing, 0)
            outcome.errors.append(
                f"{len(stored)} sites in the sidecar, dataset says "
                f"{dataset.visited_sites}, expected {self.sites}")
        changed = [domain for domain, evidences in stored.items()
                   if [evidence_to_dict(e) for e in evidences]
                   != [evidence_to_dict(e)
                       for e in dataset.evidence.get(domain, [])]]
        if changed:
            outcome.errors.append(
                f"{len(changed)} sites' sidecar evidence differs from the "
                f"dataset (e.g. {changed[0]})")
        recomputed = {"identified": identified, "clean": clean}
        if recomputed != dataset.table5():
            outcome.errors.append(
                f"table5 {dataset.table5()} != sidecar {recomputed}")


WORKLOADS = {cls.name: cls for cls in (CrawlJS, CrawlLab, Scan)}
