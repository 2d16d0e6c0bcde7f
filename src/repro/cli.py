"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's experiments:

* ``audit``   — fingerprint surface + detector validation (Sec. 3)
* ``scan``    — the static+dynamic detector scan (Sec. 4)
* ``attack``  — the recording attacks vs vanilla/hardened (Sec. 5/6)
* ``compare`` — the paired WPM vs WPM_hide crawl (Sec. 6.3)
* ``survey``  — the literature datasets (Tables 1 and 14)
* ``stats``   — crawl health / loss-accounting report (telemetry)
* ``serve``   — query API over a crawl database (``build``/``verify``
  maintain and differential-check its read-optimized rollups)
* ``crawl``   — scheduled crawl: worker pool, persistent queue, --resume
* ``fidelity``— score a replayed execution bundle against its recording
* ``corpus``  — content-addressed store maintenance (``verify``)
* ``trace``   — export a crawl as Chrome trace-event JSON (Perfetto)
* ``profile`` — JS-engine profile: hot scripts/functions by op count
* ``tail``    — print (or follow) the merged flight-recorder journal
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.browser.profiles import openwpm_profile, \
        stock_firefox_profile
    from repro.core.fingerprint import (
        OpenWPMDetector,
        capture_template,
        diff_templates,
        run_probes,
    )
    from repro.core.fingerprint.surface import summarise_setup
    from repro.core.lab import make_window
    from repro.openwpm import BrowserParams, OpenWPMExtension

    _, baseline_window = make_window(stock_firefox_profile(args.os))
    baseline = capture_template(baseline_window)
    extension = OpenWPMExtension(BrowserParams(
        os_name=args.os, display_mode=args.mode)) \
        if not args.no_instrument else None
    _, window = make_window(openwpm_profile(args.os, args.mode),
                            extension=extension)
    surface = diff_templates(baseline, capture_template(window))
    probes = run_probes(window)
    summary = summarise_setup(f"{args.os}/{args.mode}", surface,
                              probes.values)
    report = OpenWPMDetector().test_window(window)
    print(json.dumps({
        "setup": summary.setup,
        "webdriver": summary.webdriver,
        "webgl_deviations": summary.webgl_deviations,
        "language_additions": summary.language_additions,
        "tampered_properties": summary.tampering,
        "custom_functions": summary.custom_functions,
        "detected": report.is_openwpm,
        "matched_rules": report.matched_descriptions(),
    }, indent=2))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.core.scan import ScanPipeline

    if args.resume and args.queue == ":memory:":
        print("error: --resume needs a file-backed queue (pass --queue)",
              file=sys.stderr)
        return 2
    if args.worker_procs is not None:
        if args.worker_procs < 1:
            print("error: --worker-procs must be >= 1", file=sys.stderr)
            return 2
        if args.queue == ":memory:":
            print("error: --worker-procs needs a file-backed queue "
                  "(pass --queue); worker processes cannot share an "
                  "in-memory queue", file=sys.stderr)
            return 2
    if args.record is not None and args.resume:
        print("error: --record archives one complete scan; it cannot "
              "be combined with --resume", file=sys.stderr)
        return 2
    if args.offline:
        if args.replay is None:
            print("error: --offline re-analyses an archived bundle; "
                  "it needs --replay <dir>", file=sys.stderr)
            return 2
        if args.record is not None:
            print("error: --offline never touches the network layer, "
                  "so there are no exchanges to --record; replay "
                  "without --offline to re-record", file=sys.stderr)
            return 2
        from repro.bundles import Bundle, BundleError
        from repro.bundles.reanalyze import reanalyze_bundle

        try:
            bundle = Bundle(args.replay)
            dataset = reanalyze_bundle(bundle)
        except BundleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(_scan_output(dataset), indent=2))
        bundle.close()
        return 0
    if args.replay is not None:
        from repro.bundles import Bundle, BundleError, ReplayWeb

        try:
            bundle = Bundle(args.replay)
        except BundleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        web = ReplayWeb(bundle)
    else:
        from repro.web import build_world

        web = build_world(site_count=args.sites, seed=args.seed)
    recorder = None
    if args.record is not None:
        from repro.bundles import BundleError, BundleWriter

        try:
            recorder = BundleWriter(
                args.record, kind="scan",
                params={"sites": args.sites, "seed": args.seed,
                        "front_only": bool(args.front_only),
                        "replay_of": args.replay},
                sites=[config.domain for config in web.configs])
        except BundleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    pipeline = ScanPipeline(web, recorder=recorder)
    dataset = pipeline.run(visit_subpages=not args.front_only,
                           workers=args.workers,
                           queue_path=args.queue, resume=args.resume,
                           worker_procs=args.worker_procs,
                           world_seed=args.seed)
    if recorder is not None:
        recorder.finalize(
            complete=dataset.visited_sites >= len(web.configs))
    print(json.dumps(_scan_output(dataset), indent=2))
    return 0


def _scan_output(dataset) -> dict:
    return {
        "sites": dataset.visited_sites,
        "table5": dataset.table5(),
        "table11": dataset.table11(),
        "fig4": dataset.fig4(),
        "table7": dataset.table7(10),
        "table12": dataset.table12(),
        "openwpm_probe_sites": dataset.openwpm_probe_site_count(),
        "corpus": dataset.corpus.stats(),
    }


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.core.attacks import (
        run_block_recording_attack,
        run_csp_blocking_attack,
        run_fake_injection_attack,
        run_iframe_bypass_attack,
        run_silent_delivery_attack,
        run_sql_injection_probe,
    )

    attacks = {
        "block-recording": run_block_recording_attack,
        "fake-injection": run_fake_injection_attack,
        "csp-blocking": run_csp_blocking_attack,
        "iframe-bypass": run_iframe_bypass_attack,
        "silent-delivery": run_silent_delivery_attack,
    }
    out = {}
    for name, attack in attacks.items():
        out[name] = {
            "vs_wpm": attack(stealth=False).succeeded,
            "vs_wpm_hide": attack(stealth=True).succeeded,
        }
    out["sql-injection"] = {
        "database_corrupted": run_sql_injection_probe().succeeded}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.comparison import PairedCrawl
    from repro.web import build_world

    web = build_world(site_count=args.sites, seed=args.seed)
    sites = sorted(web.ground_truth.detector_sites())
    result = PairedCrawl(web, sites=sites,
                         repetitions=args.repetitions).run()
    print(json.dumps({
        "detector_sites": len(sites),
        "table8_r1": result.table8(0),
        "csp_report_reduction_pct": result.csp_report_reduction(0),
        "table9": result.table9(),
        "table10": result.table10(),
        "cookie_wilcoxon_p": result.cookie_significance(0).p_value,
        "fig6_top": result.fig6(0)[:10],
    }, indent=2))
    return 0


def _database_path(path: str) -> Optional[str]:
    """Validate *path* as an existing crawl database, or complain.

    Opening a missing path with :class:`StorageController` would
    silently create an empty database and report zeros — exactly the
    kind of quiet wrong answer this repo exists to catch. Commands
    that *read* a crawl (``serve``, ``stats --db``, ``trace``,
    ``profile``) refuse instead; callers exit 2 on ``None``.
    """
    if os.path.isfile(path):
        return path
    print(f"error: no crawl database at {path!r}", file=sys.stderr)
    return None


def _cmd_stats(args: argparse.Namespace) -> int:
    import os

    from repro.obs.export import metrics_to_prometheus, snapshot_to_json
    from repro.obs.journal import journal_path_for
    from repro.obs.stats import build_crawl_report, render_crawl_report

    result = None
    if args.db is not None and not args.fresh:
        from repro.openwpm.storage import StorageController

        if _database_path(args.db) is None:
            return 2
        storage = StorageController(args.db)
        cleanup = storage.close
    elif args.bundle is not None:
        # Reporting on a bundle alone must not kick off a crawl.
        from repro.openwpm.storage import StorageController

        storage = StorageController(":memory:")
        cleanup = storage.close
    else:
        from repro.obs.runner import run_telemetry_crawl

        result = run_telemetry_crawl(
            site_count=args.sites, seed=args.seed,
            database_path=args.db or ":memory:",
            crash_probability=args.crash_probability,
            browsers=args.browsers,
            js_instrument=args.js_instrument,
            web="tranco" if args.tranco else "lab")
        storage = result.storage
        cleanup = result.close

    journal_dir = args.journal
    if journal_dir is None and args.db is not None:
        # A crawl recorded with --journal left its directory beside the
        # database; reconcile against it automatically when present.
        candidate = journal_path_for(args.db)
        if candidate is not None and os.path.isdir(candidate):
            journal_dir = candidate

    queue = None
    corpus = None
    bundle = None
    try:
        if args.queue is not None:
            from repro.sched import JobQueue

            queue = JobQueue(args.queue)
        if args.corpus is not None:
            from repro.corpus import ScriptCorpus

            corpus = ScriptCorpus(args.corpus)
        if args.bundle is not None:
            from repro.bundles import Bundle, BundleError

            try:
                bundle = Bundle(args.bundle, allow_incomplete=True)
            except BundleError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        report = build_crawl_report(storage, queue=queue, corpus=corpus,
                                    journal_dir=journal_dir,
                                    bundle=bundle)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(snapshot_to_json(report) + "\n")
        if args.json:
            print(snapshot_to_json(report))
        elif args.prometheus:
            print(metrics_to_prometheus(storage.telemetry_metrics()))
        else:
            print(render_crawl_report(report))
        return 0 if report["reconciled"] or not report["reconciliation"] \
            else 1
    finally:
        if queue is not None:
            queue.close()
        if corpus is not None:
            corpus.close()
        if bundle is not None:
            bundle.close()
        cleanup()


def _cmd_serve(args: argparse.Namespace) -> int:
    mode = None
    database = args.db
    if args.db in ("build", "verify"):
        if len(args.extra) != 1:
            print(f"error: 'serve {args.db}' needs exactly one "
                  f"database path", file=sys.stderr)
            return 2
        mode, database = args.db, args.extra[0]
    elif args.extra:
        print(f"error: repro serve takes one crawl database, got "
              f"{1 + len(args.extra)}", file=sys.stderr)
        return 2
    database = _database_path(database)
    if database is None:
        return 2

    if mode is not None:
        import sqlite3

        from repro.serve import build, verify

        connection = sqlite3.connect(database)
        try:
            if mode == "build":
                print(json.dumps(build(connection), sort_keys=True))
                return 0
            report = verify(connection)
            print(json.dumps(report, sort_keys=True))
            return 0 if report["ok"] else 1
        finally:
            connection.close()

    from repro.serve import ResultServer, ServeError

    try:
        server = ResultServer(database, host=args.host, port=args.port,
                              cache_capacity=args.cache_capacity,
                              cache_ttl=args.cache_ttl)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    port = server.start()
    # The bound port line is machine-read (tests, the CI smoke job
    # curl loop) — keep it first and on one line.
    print(f"serving {database} at http://{args.host}:{port}",
          flush=True)
    try:
        server.serve_forever()
    finally:
        server.close()
    return 0


def _site_list(spec: str) -> "tuple[int, list | None]":
    """``--sites`` is a count, or a path to a file of URLs."""
    try:
        return int(spec), None
    except ValueError:
        pass
    with open(spec) as handle:
        urls = [line.strip() for line in handle
                if line.strip() and not line.lstrip().startswith("#")]
    return len(urls), urls


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.obs.runner import run_telemetry_crawl

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.worker_procs is not None and args.worker_procs < 1:
        print("error: --worker-procs must be >= 1", file=sys.stderr)
        return 2
    if args.record is not None and args.resume:
        print("error: --record archives one complete crawl; it cannot "
              "be combined with --resume", file=sys.stderr)
        return 2
    if args.replay is not None:
        # The bundle names the sites; --sites is ignored.
        from repro.bundles import Bundle, BundleError

        try:
            with_bundle = Bundle(args.replay)
        except BundleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        urls = list(with_bundle.sites())
        site_count = len(urls)
        with_bundle.close()
    else:
        try:
            site_count, urls = _site_list(args.sites)
        except OSError as exc:
            print(f"error: --sites file unreadable: {exc}",
                  file=sys.stderr)
            return 2
    queue_path = args.queue
    if queue_path is None:
        queue_path = ":memory:" if args.db == ":memory:" \
            else f"{args.db}.queue"
    if args.resume and queue_path == ":memory:":
        print("error: --resume needs a file-backed queue "
              "(pass --db or --queue)", file=sys.stderr)
        return 2
    if args.worker_procs is not None and queue_path == ":memory:":
        print("error: --worker-procs needs a file-backed queue "
              "(pass --db or --queue); worker processes cannot share "
              "an in-memory queue", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_json_file(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"error: --fault-plan unreadable: {exc}",
                  file=sys.stderr)
            return 2
    journal_dir = None
    if args.journal is not None:
        if args.journal != "auto":
            journal_dir = args.journal
        else:
            from repro.obs.journal import journal_path_for

            journal_dir = journal_path_for(args.db)
            if journal_dir is None:
                print("error: --journal with an in-memory --db needs "
                      "an explicit directory (--journal DIR)",
                      file=sys.stderr)
                return 2

    result = run_telemetry_crawl(
        site_count=site_count, seed=args.seed,
        database_path=args.db,
        crash_probability=args.crash_probability,
        browsers=1 if args.worker_procs is not None else args.workers,
        dwell=args.dwell,
        web=args.web, urls=urls,
        workers=None if args.worker_procs is not None
        else args.workers,
        worker_procs=args.worker_procs,
        heartbeat_deadline=args.heartbeat_deadline,
        respawn_limit=args.respawn_limit,
        queue_path=queue_path,
        resume=args.resume, stop_after_jobs=args.stop_after,
        fault_plan=fault_plan,
        stage_deadline=args.stage_deadline,
        quarantine_after=args.quarantine_after,
        journal_dir=journal_dir, profile=args.profile,
        record_dir=args.record, replay_dir=args.replay)
    report = result.report
    try:
        payload = {
            "sites": site_count,
            "workers": report.workers,
            "queue": queue_path,
            "journal": journal_dir,
            "resumed": args.resume,
            "released_leases": report.released_leases,
            "completed": report.completed,
            "failed": report.failed,
            "retried": report.retried,
            "reclaimed": report.reclaimed,
            "worker_deaths": report.worker_deaths,
            "lease_lost": report.lease_lost,
            "interrupted": report.interrupted,
            "queue_counts": report.counts,
            "drained": report.drained,
        }
        if args.record is not None:
            payload["bundle"] = result.recorder.manifest.get(
                "counts") if result.recorder is not None else None
            payload["record"] = args.record
        if args.replay is not None:
            payload["replay"] = args.replay
            # Counted wherever the fetch ran: a worker process's
            # metrics merge into this telemetry.
            payload["replay_misses"] = int(
                result.telemetry.metrics.counter_value(
                    "bundle_replay_misses"))
        if result.profiler is not None:
            payload["hot_scripts"] = result.profiler.hot_scripts(5)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"crawl: {report.completed} completed, "
                  f"{report.failed} failed, {report.retried} retried "
                  f"on {report.workers} worker(s)")
            print("queue: " + ", ".join(
                f"{state}={count}"
                for state, count in sorted(report.counts.items())))
            if journal_dir is not None:
                print(f"journal: {journal_dir}")
            if args.record is not None:
                print(f"bundle: recorded to {args.record}")
            if args.replay is not None:
                print(f"replay: served from {args.replay} "
                      f"({payload['replay_misses']} misses)")
            for row in (payload.get("hot_scripts") or [])[:3]:
                print(f"hot script: {row['ops']} ops  "
                      f"{row['script_hash'][:16]}  {row['script_url']}")
            if not report.drained:
                print(f"queue not drained — rerun with --resume "
                      f"--queue {queue_path} to finish")
        return 0 if report.drained else 1
    finally:
        result.close()


def _resolve_journal_dir(source: str) -> Optional[str]:
    """*source* as a journal directory: itself, or ``<db>.journal``."""
    import os

    from repro.obs.journal import journal_path_for

    if os.path.isdir(source):
        return source
    candidate = journal_path_for(source)
    if candidate is not None and os.path.isdir(candidate):
        return candidate
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from repro.obs.journal import merge_journal
    from repro.obs.trace import (
        chrome_trace_to_json,
        journal_to_chrome_trace,
        spans_to_chrome_trace,
    )

    journal_dir = _resolve_journal_dir(args.source)
    if journal_dir is not None:
        trace = journal_to_chrome_trace(merge_journal(journal_dir))
    elif _database_path(args.source) is not None:
        # Pre-journal crawl database: fall back to the persisted
        # telemetry span table (spans only, no instants).
        from repro.openwpm.storage import StorageController

        storage = StorageController(args.source)
        try:
            trace = spans_to_chrome_trace(storage.telemetry_spans())
        finally:
            storage.close()
    else:
        return 2
    text = chrome_trace_to_json(trace)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(trace['traceEvents'])} trace events "
              f"to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.journal import merge_journal

    journal_dir = _resolve_journal_dir(args.source)
    if journal_dir is None:
        if _database_path(args.source) is not None:
            print(f"error: {args.source!r} has no journal sidecar "
                  f"(crawl with --journal --profile first)",
                  file=sys.stderr)
        return 2
    events = merge_journal(journal_dir)
    profile_events = [event for event in events
                      if event.get("type") in ("profile_script",
                                               "profile_function")]
    if not profile_events:
        print("error: journal has no profiler events "
              "(crawl with --profile)", file=sys.stderr)
        return 1
    # Each run journals its own end-of-run aggregates; report the
    # latest run's profile.
    last_epoch = max(int(event.get("epoch") or 0)
                     for event in profile_events)
    profile_events = [event for event in profile_events
                      if int(event.get("epoch") or 0) == last_epoch]
    scripts = sorted(
        (event for event in profile_events
         if event["type"] == "profile_script"),
        key=lambda e: (-int(e.get("ops") or 0),
                       str(e.get("script_hash"))))
    functions = sorted(
        (event for event in profile_events
         if event["type"] == "profile_function"),
        key=lambda e: (-int(e.get("self_ops") or 0),
                       str(e.get("script_url")),
                       str(e.get("function"))))

    corpus = None
    if args.corpus is not None:
        from repro.corpus import ScriptCorpus

        corpus = ScriptCorpus(args.corpus)
    try:
        script_rows = []
        for event in scripts[:args.top]:
            row = {"script_hash": event.get("script_hash"),
                   "script_url": event.get("script_url"),
                   "ops": int(event.get("ops") or 0),
                   "runs": int(event.get("runs") or 0)}
            if corpus is not None:
                row["in_corpus"] = corpus.has(str(row["script_hash"]))
            script_rows.append(row)
        function_rows = [
            {"script_url": event.get("script_url"),
             "function": event.get("function"),
             "self_ops": int(event.get("self_ops") or 0),
             "total_ops": int(event.get("total_ops") or 0),
             "calls": int(event.get("calls") or 0)}
            for event in functions[:args.top]]
        if args.json:
            print(json.dumps({"epoch": last_epoch,
                              "scripts": script_rows,
                              "functions": function_rows}, indent=2))
            return 0
        print(f"JS-engine profile (journal epoch {last_epoch})")
        print(f"{'ops':>10}  {'runs':>5}  script")
        for row in script_rows:
            mark = ""
            if "in_corpus" in row:
                mark = "  [corpus]" if row["in_corpus"] \
                    else "  [not in corpus]"
            print(f"{row['ops']:>10}  {row['runs']:>5}  "
                  f"{str(row['script_hash'])[:16]}  "
                  f"{row['script_url']}{mark}")
        if args.functions:
            print()
            print(f"{'self ops':>10}  {'total':>10}  {'calls':>6}  "
                  f"function")
            for row in function_rows:
                print(f"{row['self_ops']:>10}  {row['total_ops']:>10}  "
                      f"{row['calls']:>6}  {row['function']}  "
                      f"({row['script_url']})")
        return 0
    finally:
        if corpus is not None:
            corpus.close()


def _format_tail_event(event: dict) -> str:
    rest = {key: value for key, value in sorted(event.items())
            if key not in ("type", "worker", "epoch", "t", "seq")}
    detail = " ".join(f"{key}={value}" for key, value in rest.items())
    return (f"[{event.get('epoch', 0)}:{event.get('t', 0.0):>10.3f} "
            f"{event.get('worker', '?'):<10}] "
            f"{event.get('type', '?')}" + (f" {detail}" if detail else ""))


def _cmd_tail(args: argparse.Namespace) -> int:
    import time

    from repro.obs.journal import merge_journal

    journal_dir = _resolve_journal_dir(args.source)
    if journal_dir is None:
        print(f"error: no journal directory at {args.source!r}",
              file=sys.stderr)
        return 2
    types = set(args.type) if args.type else None

    def wanted(event: dict) -> bool:
        return types is None or event.get("type") in types

    events = [event for event in merge_journal(journal_dir)
              if wanted(event)]
    for event in events[-args.max_events:] if args.max_events else events:
        print(_format_tail_event(event))
    if not args.follow:
        return 0
    seen = len(events)
    try:
        while True:
            time.sleep(args.interval)
            events = [event for event in merge_journal(journal_dir)
                      if wanted(event)]
            for event in events[seen:]:
                print(_format_tail_event(event), flush=True)
            seen = len(events)
    except KeyboardInterrupt:
        return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from repro.bundles import (
        Bundle,
        BundleError,
        diff_bundles,
        render_fidelity_report,
    )

    original = replay = None
    try:
        try:
            original = Bundle(args.original)
            replay = Bundle(args.replay)
        except BundleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = diff_bundles(original, replay)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(report, indent=2) + "\n")
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_fidelity_report(report), end="")
        return 0 if report["zero_diffs"] else 1
    finally:
        if original is not None:
            original.close()
        if replay is not None:
            replay.close()


def _cmd_corpus_verify(args: argparse.Namespace) -> int:
    import os

    from repro.bundles import Bundle, BundleError, is_bundle_dir
    from repro.corpus import ScriptCorpus

    bundle = None
    if is_bundle_dir(args.path):
        try:
            bundle = Bundle(args.path, allow_incomplete=True)
        except BundleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        corpus = bundle.store
    elif os.path.isfile(args.path):
        corpus = ScriptCorpus(args.path)
    else:
        print(f"error: {args.path!r} is neither a corpus database nor "
              f"a bundle directory", file=sys.stderr)
        return 2
    try:
        report = corpus.verify()
        if bundle is not None:
            # Beyond blob integrity: every content address the bundle's
            # manifest rows reference must resolve in the store.
            dangling = []
            for context, digest in bundle.refs():
                if not corpus.has(digest):
                    dangling.append({"context": context,
                                     "hash": digest})
            report["dangling_refs"] = dangling
            report["ok"] = report["ok"] and not dangling
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(f"corpus verify: {args.path}")
            print(f"  bodies checked ......... "
                  f"{report['bodies_checked']}")
            print(f"  corrupt ................ {len(report['corrupt'])}")
            for entry in report["corrupt"][:10]:
                print(f"    {entry['hash']}  {entry['error']}")
            print(f"  orphaned occurrences ... "
                  f"{len(report['orphaned_occurrences'])} "
                  f"(analysis: {len(report['orphaned_analysis'])})")
            if report["refcount_drift"]:
                print(f"  refcount drift ......... "
                      f"{len(report['refcount_drift'])} script(s)")
            if bundle is not None:
                print(f"  dangling bundle refs ... "
                      f"{len(report['dangling_refs'])}")
                for entry in report["dangling_refs"][:10]:
                    print(f"    {entry['hash']}  ({entry['context']})")
            print("INTACT" if report["ok"] else "CORRUPT")
        return 0 if report["ok"] else 1
    finally:
        if bundle is not None:
            bundle.close()
        else:
            corpus.close()


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.literature import outdated_statistics, summarise_studies

    print(json.dumps({
        "table1": summarise_studies(),
        "table14": outdated_statistics(),
    }, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="fingerprint surface (Sec. 3)")
    audit.add_argument("--os", choices=["ubuntu", "macos"],
                       default="ubuntu")
    audit.add_argument("--mode", choices=["regular", "headless", "xvfb",
                                          "docker"], default="regular")
    audit.add_argument("--no-instrument", action="store_true",
                       help="audit without the JS instrument")
    audit.set_defaults(fn=_cmd_audit)

    scan = sub.add_parser("scan", help="detector scan (Sec. 4)")
    scan.add_argument("--sites", type=int, default=500)
    scan.add_argument("--seed", type=int, default=7)
    scan.add_argument("--front-only", action="store_true")
    scan.add_argument("--workers", type=int, default=1,
                      help="scan worker threads (one browser each)")
    scan.add_argument("--worker-procs", type=int, default=None,
                      metavar="N",
                      help="scan on N supervised worker processes "
                           "instead of threads (needs --queue)")
    scan.add_argument("--queue", default=":memory:",
                      help="queue database path; evidence and the "
                           "script corpus persist to <queue>.scan / "
                           "<queue>.corpus sidecars")
    scan.add_argument("--resume", action="store_true",
                      help="reopen the queue and scan only the "
                           "remainder (needs --queue)")
    scan.add_argument("--record", default=None, metavar="DIR",
                      help="archive every visit into an execution "
                           "bundle at DIR (record/replay)")
    scan.add_argument("--replay", default=None, metavar="DIR",
                      help="serve the whole scan from the bundle at "
                           "DIR instead of the synthetic web")
    scan.add_argument("--offline", action="store_true",
                      help="with --replay: skip browser re-execution "
                           "and re-run only the detector pipeline over "
                           "the archived evidence (fast re-analysis)")
    scan.set_defaults(fn=_cmd_scan)

    attack = sub.add_parser("attack", help="recording attacks (Sec. 5)")
    attack.set_defaults(fn=_cmd_attack)

    compare = sub.add_parser("compare",
                             help="WPM vs WPM_hide crawl (Sec. 6.3)")
    compare.add_argument("--sites", type=int, default=400)
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument("--repetitions", type=int, default=3)
    compare.set_defaults(fn=_cmd_compare)

    survey = sub.add_parser("survey",
                            help="literature datasets (Tables 1/14)")
    survey.set_defaults(fn=_cmd_survey)

    stats = sub.add_parser(
        "stats", help="crawl health / loss-accounting report")
    stats.add_argument("--db", default=None,
                       help="existing crawl database to report on "
                            "(default: run a fresh instrumented crawl)")
    stats.add_argument("--fresh", action="store_true",
                       help="crawl into --db even if it exists")
    stats.add_argument("--sites", type=int, default=1000)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument("--crash-probability", type=float, default=0.05)
    stats.add_argument("--browsers", type=int, default=2)
    stats.add_argument("--js-instrument", action="store_true",
                       help="enable the JS instrument on the fresh crawl")
    stats.add_argument("--tranco", action="store_true",
                       help="crawl the synthetic Tranco web instead of "
                            "the lab site")
    stats.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
    stats.add_argument("--prometheus", action="store_true",
                       help="emit metrics in Prometheus text format")
    stats.add_argument("--queue", default=None,
                       help="scheduler queue database to reconcile "
                            "against the crawl data")
    stats.add_argument("--corpus", default=None,
                       help="script-corpus database (<queue>.corpus) "
                            "to report dedup / cache effectiveness on")
    stats.add_argument("--journal", default=None, metavar="DIR",
                       help="flight-recorder journal directory to "
                            "reconcile against (default: <db>.journal "
                            "when present)")
    stats.add_argument("--bundle", default=None, metavar="DIR",
                       help="execution bundle to report coverage and "
                            "store size on")
    stats.add_argument("--output", default=None, metavar="PATH",
                       help="also write the JSON report to PATH")
    stats.set_defaults(fn=_cmd_stats)

    serve = sub.add_parser(
        "serve", help="query API over a crawl database (rollups)")
    serve.add_argument("db",
                       help="crawl database to serve; or the word "
                            "'build' / 'verify' followed by the "
                            "database to backfill / differential-check "
                            "its rollup tables and exit")
    serve.add_argument("extra", nargs="*", default=[],
                       metavar="DB",
                       help="database path for 'serve build' / "
                            "'serve verify'")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks an ephemeral port, "
                            "printed on the first output line")
    serve.add_argument("--cache-capacity", type=int, default=512,
                       help="response-cache entries (0 disables)")
    serve.add_argument("--cache-ttl", type=float, default=30.0,
                       help="response-cache TTL in seconds")
    serve.set_defaults(fn=_cmd_serve)

    crawl = sub.add_parser(
        "crawl", help="scheduled crawl (worker pool + resumable queue)")
    crawl.add_argument("--sites", default="200",
                       help="site count, or a path to a file of URLs "
                            "(one per line)")
    crawl.add_argument("--workers", type=int, default=4,
                       help="worker threads, one browser slot each")
    crawl.add_argument("--worker-procs", type=int, default=None,
                       metavar="N",
                       help="crawl on N supervised worker processes "
                            "instead of threads: process isolation, "
                            "heartbeat/SIGKILL supervision, and a "
                            "single-writer storage broker (needs a "
                            "file-backed --db or --queue)")
    crawl.add_argument("--heartbeat-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="with --worker-procs: SIGKILL a worker "
                            "silent for this many real seconds")
    crawl.add_argument("--respawn-limit", type=int, default=None,
                       metavar="N",
                       help="with --worker-procs: abnormal deaths per "
                            "slot before the pool shrinks")
    crawl.add_argument("--db", default=":memory:",
                       help="crawl database path")
    crawl.add_argument("--queue", default=None,
                       help="queue database path "
                            "(default: <db>.queue, or in-memory)")
    crawl.add_argument("--resume", action="store_true",
                       help="reopen the queue and crawl only the "
                            "remainder")
    crawl.add_argument("--stop-after", type=int, default=None,
                       help="stop gracefully after N jobs finish "
                            "(for testing interruption)")
    crawl.add_argument("--web", choices=["lab", "tranco"], default="lab")
    crawl.add_argument("--seed", type=int, default=7)
    crawl.add_argument("--crash-probability", type=float, default=0.05)
    crawl.add_argument("--dwell", type=float, default=1.0)
    crawl.add_argument("--fault-plan", default=None, metavar="PATH",
                       help="JSON fault plan to inject (chaos testing); "
                            "see repro.faults.FaultPlan")
    crawl.add_argument("--stage-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="watchdog deadline per visit stage "
                            "(virtual seconds); hung visits are aborted "
                            "and the browser slot restarted")
    crawl.add_argument("--quarantine-after", type=int, default=None,
                       metavar="N",
                       help="quarantine a site after N crash/hang "
                            "failures (circuit breaker)")
    crawl.add_argument("--journal", nargs="?", const="auto", default=None,
                       metavar="DIR",
                       help="record a flight-recorder journal "
                            "(default directory: <db>.journal)")
    crawl.add_argument("--profile", action="store_true",
                       help="profile the JS engine (op counts per "
                            "script/function, journalled at crawl end)")
    crawl.add_argument("--record", default=None, metavar="DIR",
                       help="archive every visit into an execution "
                            "bundle at DIR (record/replay)")
    crawl.add_argument("--replay", default=None, metavar="DIR",
                       help="serve the whole crawl from the bundle at "
                            "DIR instead of a live web (--sites is "
                            "then taken from the bundle)")
    crawl.add_argument("--json", action="store_true",
                       help="emit the crawl report as JSON")
    crawl.set_defaults(fn=_cmd_crawl)

    fidelity = sub.add_parser(
        "fidelity", help="score a replayed bundle against its "
                         "recording (resources, traces, verdicts)")
    fidelity.add_argument("original",
                          help="the bundle recorded from the live "
                               "crawl")
    fidelity.add_argument("replay",
                          help="the bundle re-recorded while replaying "
                               "(crawl --replay ORIGINAL --record "
                               "REPLAY)")
    fidelity.add_argument("--json", action="store_true",
                          help="emit the report as JSON")
    fidelity.add_argument("--output", default=None, metavar="PATH",
                          help="also write the JSON report to PATH")
    fidelity.set_defaults(fn=_cmd_fidelity)

    corpus = sub.add_parser(
        "corpus", help="content-addressed store maintenance")
    corpus_sub = corpus.add_subparsers(dest="corpus_command",
                                       required=True)
    corpus_verify = corpus_sub.add_parser(
        "verify", help="re-hash every stored blob against its content "
                       "address; report corruption and orphans")
    corpus_verify.add_argument("path",
                               help="corpus database (<queue>.corpus) "
                                    "or bundle directory")
    corpus_verify.add_argument("--json", action="store_true",
                               help="emit the report as JSON")
    corpus_verify.set_defaults(fn=_cmd_corpus_verify)

    trace = sub.add_parser(
        "trace", help="export Chrome trace-event JSON (Perfetto)")
    trace.add_argument("source",
                       help="journal directory, or a crawl database "
                            "(uses <db>.journal, falling back to the "
                            "telemetry span table)")
    trace.add_argument("--output", default=None, metavar="PATH",
                       help="write the trace JSON to PATH "
                            "(default: stdout)")
    trace.set_defaults(fn=_cmd_trace)

    profile = sub.add_parser(
        "profile", help="JS-engine profile: hot scripts by op count")
    profile.add_argument("source",
                         help="journal directory or crawl database "
                              "(crawl with --journal --profile)")
    profile.add_argument("--top", type=int, default=10,
                         help="rows per table (default 10)")
    profile.add_argument("--functions", action="store_true",
                         help="also print the hot-function table")
    profile.add_argument("--corpus", default=None, metavar="PATH",
                         help="script-corpus database to join hot "
                              "scripts against by content hash")
    profile.add_argument("--json", action="store_true",
                         help="emit the profile as JSON")
    profile.set_defaults(fn=_cmd_profile)

    tail = sub.add_parser(
        "tail", help="print (or follow) the merged journal")
    tail.add_argument("source",
                      help="journal directory or crawl database")
    tail.add_argument("--follow", action="store_true",
                      help="keep polling for new events (Ctrl-C stops)")
    tail.add_argument("--interval", type=float, default=0.5,
                      help="poll interval in (real) seconds with "
                           "--follow")
    tail.add_argument("--max-events", type=int, default=None,
                      metavar="N", help="print only the last N events")
    tail.add_argument("--type", action="append", default=None,
                      metavar="TYPE",
                      help="only events of TYPE (repeatable)")
    tail.set_defaults(fn=_cmd_tail)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. ``repro profile | head``).
        # Detach stdout so the interpreter's shutdown flush doesn't
        # raise a second time, and exit with the conventional 128+SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
