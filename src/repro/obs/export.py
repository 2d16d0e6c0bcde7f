"""Exporters: telemetry snapshots as JSON and Prometheus text format.

Both operate on *snapshot dicts* (the output of
``MetricsRegistry.snapshot()`` / ``Telemetry.snapshot()``, which is also
the shape the ``telemetry`` SQLite table round-trips), so a live crawl
and a stored database export identically.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

_PROM_PREFIX = "repro_"

#: ``# HELP`` text per metric (pre-prefix names). Metrics outside this
#: table get a generated line — every exported family carries HELP.
HELP_TEXTS: Dict[str, str] = {
    "visits_attempted": "Sites the crawl attempted to visit.",
    "visits_completed": "Visits that committed all their data.",
    "visits_crashed": "Visit attempts ended by a browser crash.",
    "visits_retried": "Visit attempts after the first for a site.",
    "visits_failed_exhausted":
        "Sites given up on after exhausting the failure limit.",
    "visit_attempts_total": "Individual visit attempts, all outcomes.",
    "visits_hung": "Visit attempts aborted by the stage watchdog.",
    "visits_aborted": "Hung visits whose partial rows were discarded.",
    "visits_abandoned": "Hung visits handed back to the queue.",
    "visits_errored": "Visit attempts ended by unexpected errors.",
    "visits_network_faults": "Visit attempts ended by network faults.",
    "visits_storage_faults":
        "Visit attempts ended by storage-layer faults.",
    "visits_quarantined":
        "Visits short-circuited by an open circuit breaker.",
    "visits_given_up": "Loss-ledger entries written (failed_visits).",
    "visits_given_up_voided":
        "Given-up rows of voided attempts, dropped unwritten.",
    "visits_discarded":
        "Visits of voided attempts, dropped unwritten.",
    "completions_discarded":
        "Completed attempts voided by a lost lease.",
    "crashes_discarded":
        "Crash rows of voided attempts, dropped unwritten.",
    "sites_quarantined": "Sites quarantined by the circuit breaker.",
    "sites_quarantined_voided":
        "Quarantine rows of voided attempts, dropped unwritten.",
    "browser_restarts": "Browser replacements after crashes.",
    "browser_cooldowns": "Crash-loop cooldowns applied to a slot.",
    "browser_crash_count": "Crashes per browser slot.",
    "records_written": "Instrument records accepted by storage.",
    "records_discarded":
        "Instrument records discarded with an aborted or voided visit.",
    "scripts_collected": "Script bodies archived to content storage.",
    "instrumentation_blocked":
        "Pages that blocked instrument injection.",
    "integrity_probe_failures":
        "End-of-visit recording-integrity probes that failed.",
    "recording_integrity":
        "1 while the JS instrument's channel is verified live.",
    "stage_seconds": "Per-stage visit latency (virtual seconds).",
    "queue_wait_seconds":
        "Job wait from enqueue to claim (queue-clock seconds: virtual "
        "when inline, wall clock under --worker-procs).",
    "lease_duration_seconds":
        "Job lease hold time (queue-clock seconds: virtual when "
        "inline, wall clock under --worker-procs).",
    "sched_jobs_claimed": "Queue jobs claimed by workers.",
    "sched_jobs_completed": "Queue jobs completed.",
    "sched_jobs_failed": "Queue jobs terminally failed.",
    "sched_jobs_retried": "Queue jobs sent back for backoff retry.",
    "sched_lease_reclaims": "Expired leases reclaimed.",
    "sched_worker_deaths": "Injected worker deaths (chaos).",
    "sched_leases_lost": "Verdicts voided by an expired lease.",
    "sched_workers_busy": "Workers currently holding a job.",
    "sched_queue_depth": "Queue depth by job state.",
}

#: Quantiles exported for every histogram, as ``<name>_p<q>`` gauges.
QUANTILES: "tuple[tuple[str, float], ...]" = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return _PROM_PREFIX + "".join(out)


def _help_text(raw_name: str) -> str:
    return HELP_TEXTS.get(raw_name, f"Crawl metric {raw_name}.")


def histogram_quantile(quantile: float, bounds: List[float],
                       bucket_counts: List[int]) -> float:
    """Estimate a quantile from fixed-bucket counts.

    Linear interpolation inside the containing bucket — the same
    estimate ``histogram_quantile()`` makes in PromQL. Observations in
    the +Inf bucket clamp to the largest finite bound (there is no
    upper edge to interpolate toward).
    """
    total = sum(bucket_counts)
    if total <= 0:
        return 0.0
    target = quantile * total
    cumulative = 0
    lower = 0.0
    for index, bound in enumerate(bounds):
        previous = cumulative
        cumulative += bucket_counts[index]
        if cumulative >= target:
            in_bucket = cumulative - previous
            if in_bucket <= 0:
                return bound
            fraction = (target - previous) / in_bucket
            return lower + (bound - lower) * fraction
        lower = bound
    return bounds[-1] if bounds else 0.0


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def metrics_to_prometheus(metrics: Iterable[Dict[str, Any]]) -> str:
    """Render metric snapshot dicts in Prometheus text exposition format.

    Every family gets ``# HELP`` and ``# TYPE`` lines; histograms
    additionally export p50/p95/p99 estimates as ``<name>_p50`` /
    ``_p95`` / ``_p99`` gauge families (sum/count alone cannot answer
    "how slow is the tail" on a dashboard).
    """
    lines: List[str] = []
    # Quantile gauges are grouped per derived family and emitted after
    # every histogram, so each family's samples stay consecutive
    # (exposition-format rule).
    quantile_families: "Dict[str, List[str]]" = {}
    seen_types: Dict[str, str] = {}

    def header(name: str, kind: str, help_text: str,
               into: List[str]) -> None:
        if name not in seen_types:
            seen_types[name] = kind
            into.append(f"# HELP {name} {help_text}")
            into.append(f"# TYPE {name} {kind}")

    for metric in metrics:
        kind = metric["kind"]
        raw_name = metric["name"]
        name = _prom_name(raw_name)
        labels = {str(k): str(v)
                  for k, v in (metric.get("labels") or {}).items()}
        header(name, kind, _help_text(raw_name), lines)
        if kind in ("counter", "gauge"):
            lines.append(
                f"{name}{_prom_labels(labels)} "
                f"{_format_value(metric['value'])}")
        elif kind == "histogram":
            bounds = list(metric["bounds"]) + [float("inf")]
            running = 0
            for bound, count in zip(bounds, metric["bucket_counts"]):
                running += count
                le = _prom_labels(labels,
                                  extra=f'le="{_format_value(bound)}"')
                lines.append(f"{name}_bucket{le} {running}")
            lines.append(f"{name}_sum{_prom_labels(labels)} "
                         f"{_format_value(metric['sum'])}")
            lines.append(f"{name}_count{_prom_labels(labels)} "
                         f"{metric['count']}")
            for suffix, quantile in QUANTILES:
                qname = f"{name}_{suffix}"
                family = quantile_families.setdefault(qname, [])
                header(qname, "gauge",
                       f"{int(quantile * 100)}th percentile estimate "
                       f"of {name}.", family)
                estimate = histogram_quantile(
                    quantile, list(metric["bounds"]),
                    list(metric["bucket_counts"]))
                family.append(
                    f"{qname}{_prom_labels(labels)} "
                    f"{_format_value(estimate)}")
    for qname in sorted(quantile_families):
        lines.extend(quantile_families[qname])
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_to_json(snapshot: Dict[str, Any], indent: int = 2) -> str:
    """Serialise a full ``Telemetry.snapshot()`` (spans + metrics)."""
    return json.dumps(snapshot, indent=indent, sort_keys=True,
                      default=str)


def spans_to_tree_lines(spans: Iterable[Dict[str, Any]],
                        max_traces: int = 5) -> List[str]:
    """Render finished spans as indented per-trace trees (for reports)."""
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)
    lines: List[str] = []
    for trace_id in sorted(by_trace)[:max_traces]:
        members = by_trace[trace_id]
        children: Dict[Any, List[Dict[str, Any]]] = {}
        for span in members:
            children.setdefault(span.get("parent_id"), []).append(span)

        def walk(parent_id, depth: int) -> None:
            for span in sorted(children.get(parent_id, []),
                               key=lambda s: s["span_id"]):
                indent = "  " * depth
                lines.append(
                    f"{indent}{span['name']} "
                    f"[{span['duration']:.3f}s {span['status']}]")
                walk(span["span_id"], depth + 1)

        lines.append(f"{trace_id}:")
        walk(None, 1)
    return lines
