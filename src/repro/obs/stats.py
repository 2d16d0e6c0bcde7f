"""Crawl health / loss-accounting reports (``python -m repro stats``).

The paper shows OpenWPM loses data silently; this module makes loss
*visible* and *checkable*. A report reconciles two independent sources:

* the telemetry counters the crawl recorded as it ran (persisted in the
  ``telemetry`` table, or read live from a :class:`Telemetry`), and
* the crawl data itself (``site_visits``, ``javascript``,
  ``http_requests``, ``javascript_cookies``, ``crash_history``,
  ``failed_visits``).

Every row of the loss funnel — enqueued → attempted → completed /
crashed / given up — is cross-checked; a crawl whose books don't
balance is exactly the "gullible tool" failure mode the paper warns
about, so the CLI exits non-zero on mismatch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.journal import (
    count_events,
    journal_files,
    merge_journal,
    sum_metric_deltas,
)
from repro.obs.telemetry import Telemetry
from repro.serve.aggregates import database_section, drop_reasons_section

#: Version stamped into every JSON report export; bump on any change to
#: the report's shape so downstream consumers can dispatch.
REPORT_SCHEMA_VERSION = 3


def _metric_value(metrics: List[Dict[str, Any]], name: str,
                  **labels: str) -> float:
    wanted = {str(k): str(v) for k, v in labels.items()}
    for metric in metrics:
        if metric["name"] == name and (metric.get("labels") or {}) == wanted:
            return float(metric.get("value") or 0.0)
    return 0.0


def _has_metric(metrics: List[Dict[str, Any]], name: str) -> bool:
    return any(metric["name"] == name for metric in metrics)


def build_crawl_report(storage: Any,
                       telemetry: Optional[Telemetry] = None,
                       queue: Any = None,
                       corpus: Any = None,
                       journal_dir: Optional[str] = None,
                       bundle: Any = None
                       ) -> Dict[str, Any]:
    """Assemble the loss-accounting report for one crawl database.

    ``telemetry`` overrides the stored snapshot with live metrics (used
    mid-crawl); by default metrics come from the ``telemetry`` table.
    ``queue`` (a :class:`repro.sched.JobQueue`) adds queue-vs-database
    reconciliation for scheduled crawls: every completed job must have
    a ``site_visits`` row, and a finished crawl must leave the queue
    drained. Queue totals are compared against the *database*, not the
    telemetry counters — a resumed crawl's persisted snapshot covers
    only the final run, while the queue spans all of them.
    ``corpus`` (a :class:`repro.corpus.ScriptCorpus`) adds script
    dedup / compression / analysis-cache effectiveness.
    ``journal_dir`` (a flight-recorder directory) adds a third book:
    the merged journal's event counts and metric-delta sums are
    reconciled against both the telemetry counters and the database
    tables — a journal that diverges from either is a
    recording-integrity failure and fails the report.
    ``bundle`` (a :class:`repro.bundles.Bundle`) adds execution-bundle
    coverage: recorded sites vs expected, visit/exchange counts, and
    store size.
    """
    if telemetry is not None and telemetry.enabled:
        metrics = telemetry.metrics.snapshot()
        spans = telemetry.tracer.snapshot()
    else:
        metrics = storage.telemetry_metrics()
        spans = storage.telemetry_spans()

    # --- database-side truth -----------------------------------------
    # Served off the read-optimized rollups when the storage's
    # maintainer vouches for them, with a raw COUNT(*) fallback — the
    # serve layer pins both paths byte-equal (see repro.serve).
    db = database_section(storage)
    drop_reasons = drop_reasons_section(storage)

    # --- telemetry-side counters -------------------------------------
    tele = {
        "visits_attempted": _metric_value(metrics, "visits_attempted"),
        "visits_completed": _metric_value(metrics, "visits_completed"),
        "visits_crashed": _metric_value(metrics, "visits_crashed"),
        "visits_retried": _metric_value(metrics, "visits_retried"),
        "visits_failed_exhausted": _metric_value(
            metrics, "visits_failed_exhausted"),
        "visit_attempts_total": _metric_value(metrics,
                                              "visit_attempts_total"),
        "browser_restarts": _metric_value(metrics, "browser_restarts"),
        # Supervision / fault-injection counters (all 0 on crawls that
        # predate the fault subsystem, which keeps the checks backward
        # compatible).
        "visits_hung": _metric_value(metrics, "visits_hung"),
        "visits_aborted": _metric_value(metrics, "visits_aborted"),
        "visits_abandoned": _metric_value(metrics, "visits_abandoned"),
        "visits_errored": _metric_value(metrics, "visits_errored"),
        "visits_network_faults": _metric_value(metrics,
                                               "visits_network_faults"),
        "visits_storage_faults": _metric_value(metrics,
                                               "visits_storage_faults"),
        "visits_quarantined": _metric_value(metrics,
                                            "visits_quarantined"),
        "visits_given_up": _metric_value(metrics, "visits_given_up"),
        "visits_discarded": _metric_value(metrics, "visits_discarded"),
        "visits_retracted": _metric_value(metrics,
                                          "visits_given_up_retracted"),
        "quarantines_retracted": _metric_value(
            metrics, "sites_quarantined_retracted"),
        "has_given_up": _has_metric(metrics, "visits_given_up"),
        "sites_quarantined": _metric_value(metrics, "sites_quarantined"),
        "browser_cooldowns": _metric_value(metrics, "browser_cooldowns"),
        "discarded_js": _metric_value(metrics, "records_discarded",
                                      instrument="js"),
        "discarded_http": _metric_value(metrics, "records_discarded",
                                        instrument="http"),
        "discarded_cookie": _metric_value(metrics, "records_discarded",
                                          instrument="cookie"),
        "records_js": _metric_value(metrics, "records_written",
                                    instrument="js"),
        "records_http": _metric_value(metrics, "records_written",
                                      instrument="http"),
        "records_cookie": _metric_value(metrics, "records_written",
                                        instrument="cookie"),
        "scripts_collected": _metric_value(metrics, "scripts_collected"),
        "instrumentation_blocked": _metric_value(
            metrics, "instrumentation_blocked"),
        "integrity_probe_failures": _metric_value(
            metrics, "integrity_probe_failures"),
        "recording_integrity": _metric_value(metrics,
                                             "recording_integrity"),
        "has_integrity_gauge": _has_metric(metrics, "recording_integrity"),
    }

    # --- scheduler ----------------------------------------------------
    scheduler: Optional[Dict[str, Any]] = None
    if _has_metric(metrics, "sched_jobs_claimed"):
        scheduler = {
            "jobs_claimed": _metric_value(metrics, "sched_jobs_claimed"),
            "jobs_completed": _metric_value(metrics,
                                            "sched_jobs_completed"),
            "jobs_failed": _metric_value(metrics, "sched_jobs_failed"),
            "jobs_retried": _metric_value(metrics, "sched_jobs_retried"),
            "lease_reclaims": _metric_value(metrics,
                                            "sched_lease_reclaims"),
            "worker_deaths": _metric_value(metrics,
                                           "sched_worker_deaths"),
            "leases_lost": _metric_value(metrics, "sched_leases_lost"),
            "queue_depth": {
                (metric.get("labels") or {}).get("state", ""):
                    int(metric.get("value") or 0)
                for metric in metrics
                if metric["name"] == "sched_queue_depth"},
        }
        for hist_name in ("queue_wait_seconds", "lease_duration_seconds"):
            for metric in metrics:
                if metric["kind"] == "histogram" \
                        and metric["name"] == hist_name:
                    count = int(metric.get("count") or 0)
                    total = float(metric.get("sum") or 0.0)
                    scheduler[hist_name] = {
                        "count": count, "total_seconds": total,
                        "mean_seconds": total / count if count else 0.0}

    # --- process pool (multi-process crawls) -------------------------
    process_pool: Optional[Dict[str, Any]] = None
    if _has_metric(metrics, "proc_workers_spawned"):
        process_pool = {
            "workers_spawned": _metric_value(metrics,
                                             "proc_workers_spawned"),
            "workers_killed": _metric_value(metrics,
                                            "proc_workers_killed"),
            "workers_respawned": _metric_value(metrics,
                                               "proc_workers_respawned"),
            "worker_deaths": _metric_value(metrics, "proc_worker_deaths"),
            "heartbeats_missed": _metric_value(metrics,
                                               "proc_heartbeats_missed"),
            "pool_shrinks": _metric_value(metrics, "proc_pool_shrinks"),
        }

    # --- stage latency -----------------------------------------------
    stages = []
    for metric in metrics:
        if metric["kind"] == "histogram" \
                and metric["name"] == "stage_seconds":
            count = int(metric.get("count") or 0)
            total = float(metric.get("sum") or 0.0)
            stages.append({
                "stage": (metric.get("labels") or {}).get("stage", ""),
                "count": count,
                "total_seconds": total,
                "mean_seconds": total / count if count else 0.0,
            })
    stages.sort(key=lambda s: -s["total_seconds"])

    # --- reconciliation ----------------------------------------------
    has_telemetry = bool(metrics)
    checks: List[Dict[str, Any]] = []

    def check(name: str, lhs: float, rhs: float) -> None:
        checks.append({"check": name, "telemetry": lhs, "database": rhs,
                       "ok": int(lhs) == int(rhs)})

    if has_telemetry:
        # Every enqueued site ends in exactly one bucket. All the new
        # buckets are 0 on pre-fault-subsystem crawls, so these checks
        # degrade to the original two-term identities.
        check("visits_attempted == completed + failed_exhausted"
              " + quarantined + abandoned + errored",
              tele["visits_attempted"],
              tele["visits_completed"] + tele["visits_failed_exhausted"]
              + tele["visits_quarantined"] + tele["visits_abandoned"]
              + tele["visits_errored"])
        check("visit_attempts_total == completed + crashed + hung"
              " + network_faults + storage_faults + errored",
              tele["visit_attempts_total"],
              tele["visits_completed"] + tele["visits_crashed"]
              + tele["visits_hung"] + tele["visits_network_faults"]
              + tele["visits_storage_faults"] + tele["visits_errored"])
        check("visit_attempts_total == site_visits rows + aborted"
              " + storage_faults + discarded completions",
              tele["visit_attempts_total"],
              db["site_visit_rows"] + tele["visits_aborted"]
              + tele["visits_storage_faults"] + tele["visits_discarded"])
        check("visits_crashed == crash_history rows",
              tele["visits_crashed"], db["crash_rows"])
        if tele["has_given_up"]:
            check("visits_given_up == failed_visits rows + retracted",
                  tele["visits_given_up"],
                  db["failed_visit_rows"] + tele["visits_retracted"])
        else:
            check("visits_failed_exhausted == failed_visits rows",
                  tele["visits_failed_exhausted"],
                  db["failed_visit_rows"])
        if _has_metric(metrics, "sites_quarantined") \
                or db["quarantined_site_rows"] == 0:
            check("sites_quarantined == quarantined_sites rows"
                  " + retracted",
                  tele["sites_quarantined"],
                  db["quarantined_site_rows"]
                  + tele["quarantines_retracted"])
        check("records_written{js} == javascript rows + discarded",
              tele["records_js"],
              db["javascript_rows"] + tele["discarded_js"])
        check("records_written{http} == http_requests rows + discarded",
              tele["records_http"],
              db["http_request_rows"] + tele["discarded_http"])
        check("records_written{cookie} == javascript_cookies rows"
              " + discarded",
              tele["records_cookie"],
              db["cookie_rows"] + tele["discarded_cookie"])
    if has_telemetry and scheduler is not None:
        # A completed visit whose lease was lost to another worker is
        # deleted from the DB and counted in visits_discarded; the
        # winning worker's re-run contributes the job's completion.
        check("visits_completed == sched_jobs_completed"
              " + discarded completions",
              tele["visits_completed"],
              scheduler["jobs_completed"] + tele["visits_discarded"])
        if tele["has_given_up"] \
                or _has_metric(metrics, "sites_quarantined") \
                or scheduler["jobs_failed"] == 0:
            check("sched_jobs_failed == visits_given_up - retracted"
                  " + sites_quarantined - quarantines retracted",
                  scheduler["jobs_failed"],
                  tele["visits_given_up"] - tele["visits_retracted"]
                  + tele["sites_quarantined"]
                  - tele["quarantines_retracted"])
        else:
            check("sched_jobs_failed == visits_failed_exhausted",
                  scheduler["jobs_failed"],
                  tele["visits_failed_exhausted"])

    queue_state: Optional[Dict[str, Any]] = None
    if queue is not None:
        counts = queue.counts()
        completed_sites = queue.sites(status="completed")
        visited = {row["site_url"] for row in storage.query(
            "SELECT DISTINCT site_url FROM site_visits")}
        visited_completed = sum(1 for site in completed_sites
                                if site in visited)
        queue_state = {
            "counts": counts,
            "drained": counts.get("pending", 0) == 0
            and counts.get("leased", 0) == 0,
        }
        check("completed queue jobs have site_visits rows",
              len(completed_sites), visited_completed)
        check("queue drained (pending + leased == 0)",
              counts.get("pending", 0) + counts.get("leased", 0), 0)
        # Every terminally failed job must have a loss-ledger entry —
        # either a failed_visits row or a quarantined_sites row. A
        # failed job missing from both is a silently lost site.
        failed_sites = queue.sites(status="failed")
        ledger = {row["site_url"] for row in storage.query(
            "SELECT site_url FROM failed_visits")}
        ledger |= {row["site_url"] for row in storage.query(
            "SELECT site_url FROM quarantined_sites")}
        check("failed queue jobs covered by loss ledger",
              len(failed_sites),
              sum(1 for site in failed_sites if site in ledger))

    # --- flight-recorder journal (third book) ------------------------
    journal_state: Optional[Dict[str, Any]] = None
    if journal_dir is not None and journal_files(journal_dir):
        events = merge_journal(journal_dir)
        event_counts = count_events(events)
        deltas = sum_metric_deltas(events)

        def journal_count(name: str) -> int:
            return int(event_counts.get(name, 0))

        def journal_retractions(name: str) -> int:
            return sum(int(event.get("count") or 1) for event in events
                       if event.get("type") == name)

        journal_state = {
            "directory": journal_dir,
            "files": len(journal_files(journal_dir)),
            "events": len(events),
            "epochs": max((int(event.get("epoch") or 0)
                           for event in events), default=0) + 1,
            "event_counts": event_counts,
        }
        # Journal events vs the database tables: every ledger row must
        # have its event, net of retractions.
        check("journal visit_crash events == crash_history rows",
              journal_count("visit_crash"), db["crash_rows"])
        check("journal visit_given_up - retractions =="
              " failed_visits rows",
              journal_count("visit_given_up")
              - journal_retractions("given_up_retracted"),
              db["failed_visit_rows"])
        check("journal site_quarantined - retractions =="
              " quarantined_sites rows",
              journal_count("site_quarantined")
              - journal_retractions("quarantine_retracted"),
              db["quarantined_site_rows"])
        if has_telemetry:
            # Journal events vs the telemetry counters (double entry).
            check("journal visit_complete events == visits_completed",
                  journal_count("visit_complete"),
                  tele["visits_completed"])
            check("journal visit_attempt events == visit_attempts_total",
                  journal_count("visit_attempt"),
                  tele["visit_attempts_total"])
            check("journal visit_start events == visits_attempted",
                  journal_count("visit_start"),
                  tele["visits_attempted"])
            # Journalled metric deltas must sum to the counter values —
            # a recorder that drops (or double-writes) metric events
            # cannot pass this.
            for name in ("visits_attempted", "visits_completed",
                         "visits_crashed", "visit_attempts_total",
                         "sched_jobs_claimed", "sched_jobs_completed"):
                if _has_metric(metrics, name):
                    check(f"journal metric deltas == {name}",
                          deltas.get((name, ()), 0.0),
                          _metric_value(metrics, name))
        if has_telemetry and process_pool is not None:
            # Process-supervision double entry: every spawn, kill,
            # death, missed heartbeat and pool shrink the coordinator
            # counted must have left a journal event in its epoch.
            check("journal proc_spawn + proc_respawn =="
                  " proc_workers_spawned",
                  journal_count("proc_spawn")
                  + journal_count("proc_respawn"),
                  process_pool["workers_spawned"])
            check("journal proc_respawn events == proc_workers_respawned",
                  journal_count("proc_respawn"),
                  process_pool["workers_respawned"])
            check("journal proc_death events == proc_worker_deaths",
                  journal_count("proc_death"),
                  process_pool["worker_deaths"])
            check("journal proc_heartbeat_miss events =="
                  " proc_heartbeats_missed",
                  journal_count("proc_heartbeat_miss"),
                  process_pool["heartbeats_missed"])
            check("journal proc_kill events == proc_workers_killed",
                  journal_count("proc_kill"),
                  process_pool["workers_killed"])
            check("journal proc_shrink events == proc_pool_shrinks",
                  journal_count("proc_shrink"),
                  process_pool["pool_shrinks"])

    browser_crash_counts = {
        (metric.get("labels") or {}).get("browser", ""):
            int(metric.get("value") or 0)
        for metric in metrics
        if metric["name"] == "browser_crash_count"}

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "has_telemetry": has_telemetry,
        "database": db,
        "telemetry": tele,
        "browser_crash_counts": browser_crash_counts,
        "scheduler": scheduler,
        "process_pool": process_pool,
        "queue": queue_state,
        "journal": journal_state,
        "corpus": corpus.stats() if corpus is not None else None,
        "bundle": bundle.stats() if bundle is not None else None,
        "drop_reasons": drop_reasons,
        "stages": stages,
        "span_count": len(spans),
        "reconciliation": checks,
        "reconciled": all(c["ok"] for c in checks),
    }


def render_crawl_report(report: Dict[str, Any]) -> str:
    """The human-readable crawl health report."""
    db = report["database"]
    tele = report["telemetry"]
    lines: List[str] = []
    push = lines.append

    push("Crawl health report")
    push("===================")
    push("")
    push("Loss accounting (sites)")
    attempted = int(tele["visits_attempted"])
    completed = int(tele["visits_completed"])
    failed = int(tele["visits_failed_exhausted"])
    if report["has_telemetry"]:
        rate = (completed / attempted * 100.0) if attempted else 0.0
        push(f"  enqueued ............... {attempted}")
        push(f"  completed .............. {completed}  ({rate:.1f}%)")
        push(f"  given up (exhausted) ... {failed}")
        push(f"  crashes (retried) ...... {int(tele['visits_crashed'])}"
             f"  (retries: {int(tele['visits_retried'])}, "
             f"restarts: {int(tele['browser_restarts'])})")
    else:
        push("  (no telemetry snapshot in this database — "
             "database-side view only)")
    push(f"  site_visits rows ....... {db['site_visit_rows']}"
         f"  (distinct sites: {db['distinct_sites_visited']})")
    push("")

    push("Records written")
    push(f"  javascript ............. {db['javascript_rows']}")
    push(f"  http_requests .......... {db['http_request_rows']}")
    push(f"  javascript_cookies ..... {db['cookie_rows']}")
    push(f"  content (archived) ..... {db['content_rows']}"
         f"  (scripts collected: {int(tele['scripts_collected'])})")
    push("")

    push("Recording integrity")
    if tele["has_integrity_gauge"]:
        healthy = tele["recording_integrity"] >= 1.0 \
            and tele["integrity_probe_failures"] == 0
        state = "OK" if healthy else "COMPROMISED"
        push(f"  gauge .................. "
             f"{int(tele['recording_integrity'])} ({state})")
        push(f"  probe failures ......... "
             f"{int(tele['integrity_probe_failures'])}")
    else:
        push("  (no JS instrument in this crawl — gauge not set)")
    push(f"  instrumentation blocked  "
         f"{int(tele['instrumentation_blocked'])}")
    push("")

    supervision_total = int(
        tele["visits_hung"] + tele["visits_aborted"]
        + tele["visits_abandoned"] + tele["visits_errored"]
        + tele["visits_network_faults"] + tele["visits_storage_faults"]
        + tele["browser_cooldowns"] + tele["visits_discarded"]
        + tele["visits_retracted"] + tele["quarantines_retracted"])
    if report["has_telemetry"] and supervision_total:
        push("Supervision (watchdog / fault recovery)")
        push(f"  hung visits ............ {int(tele['visits_hung'])}"
             f"  (aborted: {int(tele['visits_aborted'])}, "
             f"abandoned to queue: {int(tele['visits_abandoned'])})")
        push(f"  network faults ......... "
             f"{int(tele['visits_network_faults'])}")
        push(f"  storage faults ......... "
             f"{int(tele['visits_storage_faults'])}")
        push(f"  unexpected errors ...... {int(tele['visits_errored'])}")
        push(f"  crash-loop cooldowns ... "
             f"{int(tele['browser_cooldowns'])}")
        if tele["visits_discarded"]:
            push(f"  late completions discarded "
                 f"{int(tele['visits_discarded'])}")
        if tele["visits_retracted"]:
            push(f"  failure verdicts retracted "
                 f"{int(tele['visits_retracted'])}")
        if tele["quarantines_retracted"]:
            push(f"  stale quarantines retracted "
                 f"{int(tele['quarantines_retracted'])}")
        push("")

    if db["quarantined_site_rows"] or tele["sites_quarantined"]:
        push("Quarantine (circuit breaker)")
        push(f"  quarantined_sites rows . {db['quarantined_site_rows']}"
             f"  (tripped this crawl: {int(tele['sites_quarantined'])})")
        push(f"  visits short-circuited . "
             f"{int(tele['visits_quarantined'])}")
        push("")

    crash_counts = report.get("browser_crash_counts") or {}
    if crash_counts:
        push("Browser crash counts")
        for browser, count in sorted(crash_counts.items()):
            push(f"  browser {browser} ............. {count} crash(es)")
        push("")

    scheduler = report.get("scheduler")
    if scheduler is not None:
        push("Scheduler")
        push(f"  jobs claimed ........... "
             f"{int(scheduler['jobs_claimed'])}")
        push(f"  jobs completed ......... "
             f"{int(scheduler['jobs_completed'])}")
        push(f"  jobs failed ............ {int(scheduler['jobs_failed'])}"
             f"  (retried: {int(scheduler['jobs_retried'])}, "
             f"lease reclaims: {int(scheduler['lease_reclaims'])})")
        if scheduler.get("worker_deaths") or scheduler.get("leases_lost"):
            push(f"  worker deaths .......... "
                 f"{int(scheduler['worker_deaths'])}"
                 f"  (leases lost: {int(scheduler['leases_lost'])})")
        depth = scheduler.get("queue_depth") or {}
        if depth:
            push("  queue depth ............ "
                 + ", ".join(f"{state}={count}"
                             for state, count in sorted(depth.items())))
        for hist_name, label in (
                ("queue_wait_seconds", "queue wait"),
                ("lease_duration_seconds", "lease duration")):
            hist = scheduler.get(hist_name)
            if hist:
                push(f"  {label + ' (mean s) ':.<24} "
                     f"{hist['mean_seconds']:.4f}  "
                     f"(n={hist['count']})")
        push("")

    process_pool = report.get("process_pool")
    if process_pool is not None:
        push("Process supervision (multi-process pool)")
        push(f"  workers spawned ........ "
             f"{int(process_pool['workers_spawned'])}"
             f"  (respawned: {int(process_pool['workers_respawned'])})")
        push(f"  worker deaths .......... "
             f"{int(process_pool['worker_deaths'])}")
        push(f"  heartbeats missed ...... "
             f"{int(process_pool['heartbeats_missed'])}"
             f"  (workers killed: "
             f"{int(process_pool['workers_killed'])})")
        if process_pool["pool_shrinks"]:
            push(f"  pool shrink events ..... "
                 f"{int(process_pool['pool_shrinks'])}")
        push("")

    corpus_stats = report.get("corpus")
    if corpus_stats is not None:
        push("Script corpus (content-addressed)")
        push(f"  unique scripts ......... "
             f"{int(corpus_stats['unique_scripts'])}"
             f"  (occurrences: {int(corpus_stats['occurrences'])}, "
             f"dedup {corpus_stats['dedup_ratio']:.1f}x)")
        raw = int(corpus_stats['raw_bytes'])
        stored = int(corpus_stats['corpus_bytes'])
        saved = (1 - stored / raw) * 100.0 if raw else 0.0
        push(f"  corpus bytes ........... {stored}"
             f"  (raw occurrence bytes: {raw}, saved {saved:.1f}%)")
        push(f"  analysis cache ......... "
             f"{int(corpus_stats['cache_entries'])} entries, "
             f"hit rate {corpus_stats['cache_hit_rate'] * 100.0:.1f}%"
             + ("" if corpus_stats["cache_enabled"]
                else "  [DISABLED via REPRO_CORPUS_CACHE=off]"))
        push("")

    bundle_stats = report.get("bundle")
    if bundle_stats is not None:
        push("Execution bundle")
        push(f"  path ................... {bundle_stats['path']}"
             f"  ({bundle_stats['kind']}, {bundle_stats['status']})")
        push(f"  sites recorded ......... "
             f"{int(bundle_stats['sites_recorded'])}"
             f"/{int(bundle_stats['sites_expected'])}"
             f"  (coverage {bundle_stats['coverage'] * 100.0:.1f}%)")
        push(f"  visits archived ........ {int(bundle_stats['visits'])}"
             f"  (exchanges: {int(bundle_stats['exchanges'])})")
        raw = int(bundle_stats["raw_bytes"])
        stored = int(bundle_stats["stored_bytes"])
        saved = (1 - stored / raw) * 100.0 if raw else 0.0
        push(f"  store .................. "
             f"{int(bundle_stats['stored_blobs'])} blobs, "
             f"{stored} bytes  (raw {raw}, saved {saved:.1f}%)")
        push("")

    journal_state = report.get("journal")
    if journal_state is not None:
        push("Flight recorder (journal)")
        push(f"  events ................. {journal_state['events']}"
             f"  (files: {journal_state['files']}, "
             f"epochs: {journal_state['epochs']})")
        counts = journal_state.get("event_counts") or {}
        lifecycle = ", ".join(
            f"{name.replace('visit_', '')}={counts[name]}"
            for name in ("visit_start", "visit_complete", "visit_crash",
                         "visit_given_up") if name in counts)
        if lifecycle:
            push(f"  visit lifecycle ........ {lifecycle}")
        push("")

    queue_state = report.get("queue")
    if queue_state is not None:
        push("Queue (persistent)")
        push("  " + ", ".join(
            f"{state}={count}"
            for state, count in sorted(queue_state["counts"].items())))
        push("  drained ................ "
             + ("yes" if queue_state["drained"] else "NO"))
        push("")

    if report["drop_reasons"]:
        push("Drop reasons (failed_visits)")
        for reason, count in report["drop_reasons"].items():
            push(f"  {reason} ... {count} site(s)")
        push("")

    if report["stages"]:
        push("Stage latency (virtual seconds)")
        push("  stage              count      total       mean")
        for stage in report["stages"]:
            push(f"  {stage['stage']:<18} {stage['count']:>5} "
                 f"{stage['total_seconds']:>10.3f} "
                 f"{stage['mean_seconds']:>10.4f}")
        push("")

    if report["reconciliation"]:
        push("Reconciliation (telemetry vs database)")
        for entry in report["reconciliation"]:
            mark = "OK " if entry["ok"] else "FAIL"
            push(f"  [{mark}] {entry['check']}: "
                 f"{int(entry['telemetry'])} vs {int(entry['database'])}")
        push("")
        push("BOOKS BALANCE" if report["reconciled"]
             else "BOOKS DO NOT BALANCE — crawl data is not trustworthy")
    return "\n".join(lines)
