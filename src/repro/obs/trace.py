"""Chrome trace-event export (``python -m repro trace``).

Converts a crawl's flight-recorder journal — or, for databases recorded
before the journal existed, the persisted ``telemetry`` span table —
into the Trace Event JSON format that Perfetto and ``about:tracing``
load: visit/stage/script spans as ``"X"`` complete events on one track
per worker, and lifecycle / fault / lease / watchdog events as ``"i"``
instants. Timestamps are the journal's virtual-clock seconds scaled to
microseconds, so a fixed-seed crawl exports byte-identically.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

#: Journal event types rendered as instant events on the worker track.
_INSTANT_TYPES = (
    "visit_start", "visit_attempt", "visit_complete", "visit_crash",
    "visit_hung", "visit_abandoned", "visit_network_fault",
    "visit_storage_fault", "visit_error", "visit_given_up",
    "visit_quarantined", "visit_discarded", "site_quarantined",
    "quarantine_voided", "given_up_voided", "watchdog_abort",
    "fault", "lease_claim", "lease_complete", "lease_fail",
    "lease_reclaim", "lease_lost", "lease_expired_terminal",
    "worker_death",
)

_PID = 1


def _us(seconds: Any) -> int:
    return int(round(float(seconds or 0.0) * 1_000_000))


def _event_args(event: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in sorted(event.items())
            if key not in ("type", "worker", "epoch", "t", "seq")}


def _span_time(event: Dict[str, Any]) -> Any:
    """A span_open's boundary time: its ``t`` (old journals: start)."""
    return event.get("start", event.get("t", 0.0))


def journal_to_chrome_trace(events: Iterable[Dict[str, Any]]
                            ) -> Dict[str, Any]:
    """Trace Event JSON from a merged journal (see ``merge_journal``)."""
    events = list(events)
    workers = sorted({str(event.get("worker", "main"))
                      for event in events})
    tids = {worker: index for index, worker in enumerate(workers)}

    trace_events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
         "args": {"name": "repro crawl"}}]
    for worker in workers:
        trace_events.append(
            {"ph": "M", "pid": _PID, "tid": tids[worker],
             "name": "thread_name", "args": {"name": worker}})

    #: (worker, span_id) -> the span_open event, until its close.
    open_spans: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for event in events:
        kind = str(event.get("type", ""))
        worker = str(event.get("worker", "main"))
        tid = tids[worker]
        if kind == "span_open":
            open_spans[(worker, str(event.get("span_id")))] = event
        elif kind == "span_close":
            key = (worker, str(event.get("span_id")))
            opened = open_spans.pop(key, None)
            # Span boundaries ride in the events' own virtual-clock
            # ``t``; older journals carried explicit start/end fields.
            end = event.get("end", event.get("t", 0.0))
            start = _span_time(opened) if opened is not None else end
            args = {"span_id": event.get("span_id"),
                    "trace_id": event.get("trace_id"),
                    "status": event.get("status", "ok")}
            args.update(event.get("attrs") or {})
            trace_events.append(
                {"ph": "X", "pid": _PID, "tid": tid, "cat": "span",
                 "name": str(event.get("name", "span")),
                 "ts": _us(start),
                 "dur": max(0, _us(end) - _us(start)),
                 "args": args})
        elif kind in _INSTANT_TYPES:
            trace_events.append(
                {"ph": "i", "pid": _PID, "tid": tid, "cat": "event",
                 "name": kind, "ts": _us(event.get("t", 0.0)),
                 "s": "t", "args": _event_args(event)})
    # A span still open at end-of-journal (crash mid-visit): surface it
    # as an instant rather than dropping the evidence.
    for (worker, _), opened in sorted(
            open_spans.items(),
            key=lambda item: _us(_span_time(item[1]))):
        trace_events.append(
            {"ph": "i", "pid": _PID, "tid": tids[worker],
             "cat": "event", "name": f"unclosed:{opened.get('name')}",
             "ts": _us(_span_time(opened)), "s": "t",
             "args": _event_args(opened)})

    trace_events.sort(key=lambda e: (0 if e["ph"] == "M" else 1,
                                     e.get("ts", 0), e["tid"],
                                     e.get("name", "")))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": {"source": "repro journal",
                          "clock": "virtual-seconds"}}


def spans_to_chrome_trace(spans: Iterable[Dict[str, Any]]
                          ) -> Dict[str, Any]:
    """Trace Event JSON from persisted ``telemetry`` span dicts.

    The fallback path for crawl databases recorded without a journal:
    tracks are per ``browser_id`` attribute (0 when absent), and only
    spans are available — no instants.
    """
    trace_events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
         "args": {"name": "repro crawl (telemetry spans)"}}]
    tids_seen: Dict[int, bool] = {}
    for span in spans:
        attributes = span.get("attributes") or {}
        try:
            tid = int(attributes.get("browser_id", 0))
        except (TypeError, ValueError):
            tid = 0
        tids_seen[tid] = True
        start = span.get("start_time") or 0.0
        end = span.get("end_time")
        end = start if end is None else end
        args = {"span_id": span.get("span_id"),
                "trace_id": span.get("trace_id"),
                "status": span.get("status", "ok")}
        args.update(attributes)
        trace_events.append(
            {"ph": "X", "pid": _PID, "tid": tid, "cat": "span",
             "name": str(span.get("name", "span")), "ts": _us(start),
             "dur": max(0, _us(end) - _us(start)), "args": args})
    for tid in sorted(tids_seen):
        trace_events.append(
            {"ph": "M", "pid": _PID, "tid": tid, "name": "thread_name",
             "args": {"name": f"browser-{tid}"}})
    trace_events.sort(key=lambda e: (0 if e["ph"] == "M" else 1,
                                     e.get("ts", 0), e["tid"],
                                     e.get("name", "")))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": {"source": "repro telemetry spans",
                          "clock": "virtual-seconds"}}


def chrome_trace_to_json(trace: Dict[str, Any]) -> str:
    """Serialise deterministically (the golden-file representation)."""
    return json.dumps(trace, indent=1, sort_keys=True) + "\n"
