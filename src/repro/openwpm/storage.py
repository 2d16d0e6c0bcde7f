"""SQLite storage controller.

Mirrors OpenWPM's data model: ``site_visits``, ``http_requests``,
``http_responses``, ``javascript`` (the JS-call log), ``javascript_cookies``,
``content`` (archived response bodies), and ``crash_history`` — plus two
reliability tables this reproduction adds: ``failed_visits`` (one row per
site the task manager gave up on, so crawl loss is queryable) and
``telemetry`` (persisted span/metric snapshots from ``repro.obs``, the
basis of ``python -m repro stats``).

Two properties the paper verifies live here:

* RQ6 sanitisation — ``top_level_url`` and ``visit_id`` on JS records are
  set by the recorder from its own visit context, never taken from the
  (page-forgeable) event payload;
* RQ7 injection safety — every statement is parameterised; hostile
  strings in any field cannot alter previously stored rows.

Recording and storing are two classes. Each browser slot records into
its own :class:`VisitRecorder` (one browser, at most one open visit),
which holds the rows as plain tuples and hands them over as one job
attempt's envelope (:meth:`VisitRecorder.take_envelope`).
:class:`StorageController` is the crawl database; its one path that
inserts crawl rows is :meth:`StorageController.record_envelope`, which
lands an envelope in one transaction once the attempt's job has
settled, with one ``executemany`` per visit table. Callers that record
straight into a database use the controller's own ``recorder``
(browser 0); :meth:`StorageController.end_visit` lands what it
recorded through the same method. Every database access runs under one
re-entrant lock.

Serving hooks: the controller owns a
:class:`repro.serve.rollups.RollupMaintainer` that ``record_envelope``
feeds every row it lands, inside the same transaction, so the
serving layer's aggregates can never commit apart from the ground
truth they summarise; ``content`` rows are booked from the post-dedup
insert count. ``REPRO_ROLLUPS=off`` disables maintenance (existing
rollups are then marked stale on the first mutation rather than
silently drifting). File-backed databases run in WAL journal mode so
the serving layer's read-only connections never contend with the
crawl writer.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.rollups import RollupMaintainer, VisitDelta

_SCHEMA = """
CREATE TABLE IF NOT EXISTS site_visits (
    visit_id INTEGER PRIMARY KEY,
    browser_id INTEGER NOT NULL,
    site_url TEXT NOT NULL,
    run_label TEXT DEFAULT ''
);
CREATE TABLE IF NOT EXISTS http_requests (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    visit_id INTEGER NOT NULL,
    browser_id INTEGER NOT NULL,
    url TEXT NOT NULL,
    top_level_url TEXT,
    frame_url TEXT,
    method TEXT,
    resource_type TEXT,
    is_third_party_channel INTEGER,
    headers TEXT,
    post_body TEXT
);
CREATE TABLE IF NOT EXISTS http_responses (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    visit_id INTEGER NOT NULL,
    browser_id INTEGER NOT NULL,
    url TEXT NOT NULL,
    response_status INTEGER,
    content_type TEXT,
    content_hash TEXT
);
CREATE TABLE IF NOT EXISTS javascript (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    visit_id INTEGER NOT NULL,
    browser_id INTEGER NOT NULL,
    top_level_url TEXT,
    document_url TEXT,
    script_url TEXT,
    symbol TEXT,
    operation TEXT,
    value TEXT,
    arguments TEXT,
    call_stack TEXT
);
CREATE TABLE IF NOT EXISTS javascript_cookies (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    visit_id INTEGER NOT NULL,
    browser_id INTEGER NOT NULL,
    record_type TEXT,
    change_cause TEXT,
    host TEXT,
    name TEXT,
    value TEXT,
    path TEXT,
    is_session INTEGER,
    is_http_only INTEGER,
    expiry REAL,
    first_party_domain TEXT,
    via_javascript INTEGER
);
CREATE TABLE IF NOT EXISTS content (
    content_hash TEXT PRIMARY KEY,
    content TEXT,
    url TEXT,
    content_type TEXT
);
CREATE TABLE IF NOT EXISTS crash_history (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    browser_id INTEGER NOT NULL,
    visit_id INTEGER,
    site_url TEXT,
    action TEXT
);
CREATE TABLE IF NOT EXISTS failed_visits (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    browser_id INTEGER,
    site_url TEXT NOT NULL,
    attempts INTEGER,
    reason TEXT
);
CREATE TABLE IF NOT EXISTS quarantined_sites (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    site_url TEXT NOT NULL UNIQUE,
    failures INTEGER,
    reason TEXT,
    quarantined_at REAL
);
CREATE TABLE IF NOT EXISTS telemetry (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    labels TEXT DEFAULT '{}',
    value REAL,
    hist_sum REAL,
    hist_count INTEGER,
    bounds TEXT,
    bucket_counts TEXT,
    trace_id TEXT,
    span_id TEXT,
    parent_span_id TEXT,
    start_time REAL,
    end_time REAL,
    status TEXT,
    attributes TEXT
);
"""


@dataclass
class VisitContext:
    """The recorder's own notion of the visit being recorded."""

    visit_id: int
    site_url: str
    #: The visit's rows so far, per visit table, in arrival order.
    tables: Dict[str, List[Tuple]]


class VisitStateError(RuntimeError):
    """A visit-scoped write arrived with no visit open, or a visit
    began while another was still open.

    Raising makes a mis-attributed record a loud failure instead of
    corrupt data: a row never lands on a sentinel or a stale visit.
    """


#: Tables whose rows belong to one visit (by ``visit_id``).
_VISIT_TABLES = ("http_requests", "http_responses", "javascript",
                "javascript_cookies")


class VisitRecorder:
    """Everything one browser slot records, held as plain rows until it
    leaves as one envelope (:meth:`take_envelope`).

    A recorder records one browser (*browser_id*, written on every
    row) with at most one open visit, whose context — not the page —
    names each record's ``visit_id`` and ``top_level_url``; a record
    arriving with no visit open raises :class:`VisitStateError`. Visit
    ids are recorder-local; the crawl database allocates its own when
    the envelope lands. A recorder belongs to one thread at a time
    (its slot's worker).
    """

    def __init__(self, browser_id: int) -> None:
        self.browser_id = browser_id
        #: The open visit, if any.
        self.context: Optional[VisitContext] = None
        self._visits: List[Dict[str, Any]] = []
        #: content_hash -> row, first seen wins (the database's dedup).
        self._content: Dict[str, Tuple] = {}
        self._ledger: Dict[str, List[Tuple]] = {
            "crash_history": [], "failed_visits": [],
            "quarantined_sites": []}
        self.next_visit_id = 1
        #: Optional :class:`repro.faults.FaultPlan`; when set,
        #: ``begin_visit`` consults it for transient ``storage_busy``
        #: faults before recording anything.
        self.fault_plan: Optional[Any] = None

    # ------------------------------------------------------------------
    # Visit lifecycle
    # ------------------------------------------------------------------
    def begin_visit(self, site_url: str) -> VisitContext:
        if self.fault_plan is not None:
            rule = self.fault_plan.check("storage.begin_visit",
                                         url=site_url)
            if rule is not None and rule.fault == "storage_busy":
                # Raised before any side effect: a transient busy /
                # locked error leaves no partial visit behind.
                raise sqlite3.OperationalError(
                    "database is locked (injected fault)")
        if self.context is not None:
            raise VisitStateError(
                f"browser {self.browser_id} already has an active visit "
                f"({self.context.site_url!r}); end_visit it before "
                f"beginning {site_url!r}")
        visit_id = self.next_visit_id
        self.next_visit_id += 1
        tables: Dict[str, List[Tuple]] = {
            table: [] for table in _VISIT_TABLES}
        self._visits.append({"visit_id": visit_id,
                             "browser_id": self.browser_id,
                             "site_url": site_url, "tables": tables})
        self.context = VisitContext(visit_id=visit_id, site_url=site_url,
                                    tables=tables)
        return self.context

    def end_visit(self) -> None:
        """Close the open visit; its rows stay for the envelope."""
        self._open()
        self.context = None

    def abort_visit(self) -> Dict[str, int]:
        """Discard the open visit: drop its rows and its context.

        The watchdog's remedy for a hung visit — whatever the visit
        recorded before hanging is incomplete and is dropped rather
        than kept. Returns per-table counts of the dropped records so
        the caller can balance its ``records_written`` accounting
        (``records_discarded`` counters).
        """
        context = self._open()
        self.context = None
        self._visits.pop()  # the open visit is the last one begun
        return {table: len(rows) for table, rows in context.tables.items()}

    def take_envelope(self) -> Dict[str, Any]:
        """Every row recorded since the last call, handed over and
        forgotten here: one job attempt's envelope.

        ``visits`` keep their recorder-local ids (a crashed attempt's
        partial visit included, as the visit left it); ``content`` rows
        are visit-less and keep first-seen order; ``ledger`` holds the
        crash, given-up and quarantine rows, whose ``crash_history``
        ``visit_id`` still names a recorder-local visit.
        """
        if self.context is not None:
            raise VisitStateError(
                f"cannot take an envelope while browser "
                f"{self.browser_id}'s visit is open")
        envelope = {"visits": self._visits,
                    "content": list(self._content.values()),
                    "ledger": self._ledger}
        self._visits, self._content = [], {}
        self._ledger = {table: [] for table in self._ledger}
        return envelope

    def _open(self) -> VisitContext:
        """The open visit, or raise."""
        if self.context is None:
            raise VisitStateError(
                f"browser {self.browser_id} has no visit open")
        return self.context

    # ------------------------------------------------------------------
    # Row writers
    # ------------------------------------------------------------------
    def record_http_request(self, url: str, top_level_url: str,
                            frame_url: str, method: str, resource_type: str,
                            is_third_party: bool, headers: str = "",
                            post_body: str = "") -> None:
        ctx = self._open()
        ctx.tables["http_requests"].append(
            (ctx.visit_id, self.browser_id, url, top_level_url, frame_url,
             method, resource_type, int(is_third_party), headers,
             post_body))

    def record_http_response(self, url: str, status: int, content_type: str,
                             content_hash: str = "") -> None:
        ctx = self._open()
        ctx.tables["http_responses"].append(
            (ctx.visit_id, self.browser_id, url, status, content_type,
             content_hash))

    def record_content(self, body: str, url: str,
                       content_type: str) -> str:
        content_hash = hashlib.sha256(body.encode()).hexdigest()
        self._content.setdefault(content_hash,
                                 (content_hash, body, url, content_type))
        return content_hash

    def record_javascript(self, document_url: str, script_url: str,
                          symbol: str, operation: str, value: str,
                          arguments: str = "", call_stack: str = ""
                          ) -> None:
        """Record one JS API access.

        ``top_level_url`` and ``visit_id`` come from the recorder's own
        visit context — the sanitisation that limits the fake-data
        injection attack (RQ6) to the currently visited site.
        """
        ctx = self._open()
        ctx.tables["javascript"].append(
            (ctx.visit_id, self.browser_id, ctx.site_url,
             document_url, script_url, str(symbol)[:2048],
             str(operation)[:64], str(value)[:2048],
             str(arguments)[:2048], str(call_stack)[:4096]))

    def record_cookie(self, change_cause: str, host: str, name: str,
                      value: str, path: str, is_session: bool,
                      is_http_only: bool, expiry: Optional[float],
                      first_party: str, via_javascript: bool) -> None:
        ctx = self._open()
        ctx.tables["javascript_cookies"].append(
            (ctx.visit_id, self.browser_id, "cookie", change_cause, host,
             name, value, path, int(is_session), int(is_http_only),
             expiry, first_party, int(via_javascript)))

    def record_crash(self, site_url: str, action: str) -> None:
        self._ledger["crash_history"].append(
            (self.browser_id,
             self.context.visit_id if self.context else None, site_url,
             action))

    def record_failed_visit(self, site_url: str, attempts: int,
                            reason: str) -> None:
        """One row per site given up on (the crawl-loss ledger)."""
        self._ledger["failed_visits"].append(
            (self.browser_id, site_url, attempts, reason))

    def record_quarantine(self, site_url: str, failures: int,
                          reason: str, quarantined_at: float = 0.0
                          ) -> None:
        """One row per site the circuit breaker gave up on."""
        rows = self._ledger["quarantined_sites"]
        if all(row[0] != site_url for row in rows):
            rows.append((site_url, failures, reason, quarantined_at))


class StorageController:
    """Owns the SQLite crawl database: its schema, its one insert path
    (:meth:`record_envelope`), telemetry persistence and the reads.

    Thread-safe: one connection shared across worker threads, every
    access serialized through ``self._lock``.
    """

    #: INSERT statements, one per crawl table.
    _INSERT: Dict[str, str] = {
        "site_visits":
            "INSERT INTO site_visits (visit_id, browser_id, site_url, "
            "run_label) VALUES (?, ?, ?, '')",
        "http_requests":
            "INSERT INTO http_requests (visit_id, browser_id, url, "
            "top_level_url, frame_url, method, resource_type, "
            "is_third_party_channel, headers, post_body) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        "http_responses":
            "INSERT INTO http_responses (visit_id, browser_id, url, "
            "response_status, content_type, content_hash) "
            "VALUES (?, ?, ?, ?, ?, ?)",
        "javascript":
            "INSERT INTO javascript (visit_id, browser_id, "
            "top_level_url, document_url, script_url, symbol, "
            "operation, value, arguments, call_stack) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        "javascript_cookies":
            "INSERT INTO javascript_cookies (visit_id, browser_id, "
            "record_type, change_cause, host, name, value, path, "
            "is_session, is_http_only, expiry, first_party_domain, "
            "via_javascript) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        "content":
            "INSERT OR IGNORE INTO content (content_hash, content, "
            "url, content_type) VALUES (?, ?, ?, ?)",
        "crash_history":
            "INSERT INTO crash_history (browser_id, visit_id, "
            "site_url, action) VALUES (?, ?, ?, ?)",
        "failed_visits":
            "INSERT INTO failed_visits (browser_id, site_url, "
            "attempts, reason) VALUES (?, ?, ?, ?)",
        "quarantined_sites":
            "INSERT OR IGNORE INTO quarantined_sites (site_url, "
            "failures, reason, quarantined_at) VALUES (?, ?, ?, ?)",
    }

    def __init__(self, database_path: str = ":memory:") -> None:
        self.database_path = database_path
        self.connection = sqlite3.connect(database_path,
                                          check_same_thread=False)
        self.connection.row_factory = sqlite3.Row
        self._lock = threading.RLock()
        with self._lock:
            if database_path != ":memory:":
                # WAL lets the serving layer's read-only connections
                # snapshot-read while the crawl writes; busy_timeout
                # rides out the rare write/checkpoint collisions.
                self.connection.execute("PRAGMA journal_mode=WAL")
                self.connection.execute("PRAGMA busy_timeout=10000")
            self.connection.executescript(_SCHEMA)
            # Resume numbering after any visits already in the database
            # (a reopened crawl must not collide with its own past).
            row = self.connection.execute(
                "SELECT MAX(visit_id) AS m FROM site_visits").fetchone()
            self._next_visit_id = int(row["m"] or 0) + 1
            #: Incremental aggregation into the ``rollups_*`` tables
            #: (``repro.serve``), fed by :meth:`record_envelope` inside
            #: its transaction.
            self.rollups = RollupMaintainer(
                self.connection, enabled=os.environ.get(
                    "REPRO_ROLLUPS", "").lower() not in ("off", "0",
                                                         "false"))
        #: Browser 0's recorder, for callers recording straight into
        #: this database: :meth:`end_visit` lands what it recorded.
        self.recorder = VisitRecorder(0)
        self.recorder.next_visit_id = self._next_visit_id

    # ------------------------------------------------------------------
    def journal_directory(self) -> Optional[str]:
        """Where this database's flight-recorder journal lives (the
        ``<db>.journal`` sidecar), or ``None`` for in-memory databases.
        Purely a path convention — the journal itself is owned by the
        telemetry layer, not the storage controller."""
        from repro.obs.journal import journal_path_for

        return journal_path_for(self.database_path)

    # ------------------------------------------------------------------
    # Recording straight into this database (through ``recorder``).
    # begin_visit, end_visit and commit stay defined on this class:
    # ``perfbench`` wraps them by name.
    # ------------------------------------------------------------------
    def begin_visit(self, site_url: str) -> VisitContext:
        return self.recorder.begin_visit(site_url)

    def end_visit(self) -> None:
        """End the recorder's visit and land everything it recorded."""
        self.recorder.end_visit()
        self.record_envelope(**self.recorder.take_envelope())
        self.recorder.next_visit_id = self._next_visit_id

    # ------------------------------------------------------------------
    # Envelopes: a recorder's rows, landed in the crawl database
    # ------------------------------------------------------------------
    def record_envelope(self, visits: List[Dict[str, Any]],
                        content: List[Tuple],
                        ledger: Dict[str, List[Tuple]]) -> int:
        """Land one attempt's envelope in a single transaction.

        Each visit gets the next visit id, so envelopes landed in job
        order give every crawl mode the same ids and row order.
        ``crash_history`` rows are remapped to the new ids; ``content``
        and ``quarantined_sites`` keep their OR IGNORE dedup. Every row
        is folded into the rollups inside the same transaction. If any
        write raises, the transaction rolls back and the id counter is
        restored, so a failed envelope leaves nothing behind. Returns
        how many quarantine rows actually landed.
        """
        with self._lock:
            first_visit_id = self._next_visit_id
            try:
                landed = self._write_envelope(visits, content, ledger)
                self.connection.commit()
            except BaseException:
                self.connection.rollback()
                self._next_visit_id = first_visit_id
                raise
            return landed

    def _write_envelope(self, visits: List[Dict[str, Any]],
                        content: List[Tuple],
                        ledger: Dict[str, List[Tuple]]) -> int:
        execute = self.connection.execute
        rollups = self.rollups
        ids: Dict[int, int] = {}
        for visit in visits:
            visit_id = self._next_visit_id
            self._next_visit_id += 1
            ids[visit["visit_id"]] = visit_id
            execute(self._INSERT["site_visits"],
                    (visit_id, visit["browser_id"], visit["site_url"]))
            delta = VisitDelta()
            for table, rows in visit["tables"].items():
                if table not in _VISIT_TABLES:
                    raise ValueError(
                        f"cannot record rows for table {table!r}")
                if not rows:
                    continue
                rows = [(visit_id,) + tuple(row[1:]) for row in rows]
                self.connection.executemany(self._INSERT[table], rows)
                if rollups.enabled:
                    for row in rows:
                        delta.add_row(table, row)
            rollups.visit_committed(visit["site_url"], delta)
        if content:
            before = self.connection.total_changes
            self.connection.executemany(self._INSERT["content"],
                                        [tuple(row) for row in content])
            rollups.content_inserted(self.connection.total_changes
                                     - before)
        for browser_id, visit_id, site_url, action in \
                ledger.get("crash_history", ()):
            execute(self._INSERT["crash_history"],
                    (browser_id, ids.get(visit_id), site_url, action))
            rollups.crash_recorded(site_url, action)
        for row in ledger.get("failed_visits", ()):
            execute(self._INSERT["failed_visits"], tuple(row))
            rollups.failed_recorded(str(row[1]), str(row[3] or ""))
        landed = 0
        for row in ledger.get("quarantined_sites", ()):
            inserted = execute(self._INSERT["quarantined_sites"],
                               tuple(row)).rowcount > 0
            rollups.quarantine_recorded(str(row[0]), inserted)
            landed += inserted
        return landed

    def quarantined_rows(self) -> List[Dict[str, Any]]:
        return [dict(row) for row in self.query(
            "SELECT * FROM quarantined_sites ORDER BY id")]

    def commit(self) -> None:
        with self._lock:
            self.connection.commit()

    # ------------------------------------------------------------------
    # Telemetry persistence
    # ------------------------------------------------------------------
    def persist_telemetry(self, snapshot: Dict[str, Any]) -> int:
        """Store a ``Telemetry.snapshot()`` (spans + metrics).

        Snapshots are cumulative, so any previous snapshot is replaced.
        Returns the number of rows written.
        """
        import json

        with self._lock:
            return self._persist_telemetry_locked(json, snapshot)

    def _persist_telemetry_locked(self, json: Any,
                                  snapshot: Dict[str, Any]) -> int:
        self.connection.execute("DELETE FROM telemetry")
        span_rows = [
            ("span", span["name"], "{}", span["duration"],
             span["trace_id"], span["span_id"], span["parent_id"],
             span["start_time"], span["end_time"], span["status"],
             json.dumps(span.get("attributes", {}), sort_keys=True,
                        default=str))
            for span in snapshot.get("spans", [])]
        if span_rows:
            self.connection.executemany(
                "INSERT INTO telemetry (kind, name, labels, value, "
                "trace_id, span_id, parent_span_id, start_time, end_time, "
                "status, attributes) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, "
                "?, ?)", span_rows)
        metric_rows = [
            (metric["kind"], metric["name"],
             json.dumps(metric.get("labels", {}), sort_keys=True),
             metric.get("value"), metric.get("sum"),
             metric.get("count"),
             json.dumps(metric.get("bounds")) if "bounds" in metric
             else None,
             json.dumps(metric.get("bucket_counts"))
             if "bucket_counts" in metric else None)
            for metric in snapshot.get("metrics", [])]
        if metric_rows:
            self.connection.executemany(
                "INSERT INTO telemetry (kind, name, labels, value, "
                "hist_sum, hist_count, bounds, bucket_counts) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)", metric_rows)
        self.connection.commit()
        return len(span_rows) + len(metric_rows)

    def telemetry_metrics(self) -> List[Dict[str, Any]]:
        """Stored metric rows, back in ``MetricsRegistry.snapshot`` shape."""
        import json

        out = []
        for row in self.query(
                "SELECT * FROM telemetry WHERE kind != 'span' ORDER BY id"):
            metric: Dict[str, Any] = {
                "kind": row["kind"], "name": row["name"],
                "labels": json.loads(row["labels"] or "{}")}
            if row["kind"] == "histogram":
                metric["sum"] = row["hist_sum"]
                metric["count"] = row["hist_count"]
                metric["bounds"] = json.loads(row["bounds"] or "[]")
                metric["bucket_counts"] = json.loads(
                    row["bucket_counts"] or "[]")
            else:
                metric["value"] = row["value"]
            out.append(metric)
        return out

    def telemetry_spans(self) -> List[Dict[str, Any]]:
        """Stored span rows, back in ``Tracer.snapshot`` shape."""
        import json

        out = []
        for row in self.query(
                "SELECT * FROM telemetry WHERE kind = 'span' ORDER BY id"):
            out.append({
                "name": row["name"], "trace_id": row["trace_id"],
                "span_id": row["span_id"],
                "parent_id": row["parent_span_id"],
                "start_time": row["start_time"],
                "end_time": row["end_time"], "duration": row["value"],
                "status": row["status"],
                "attributes": json.loads(row["attributes"] or "{}")})
        return out

    def telemetry_metric_value(self, name: str, **labels: str) -> float:
        """One stored counter/gauge value (0.0 when absent)."""
        import json

        wanted = {str(k): str(v) for k, v in labels.items()}
        for metric in self.telemetry_metrics():
            if metric["name"] == name and metric.get("labels",
                                                     {}) == wanted:
                return float(metric.get("value") or 0.0)
        return 0.0

    def failed_visit_rows(self) -> List[Dict[str, Any]]:
        return [dict(row)
                for row in self.query("SELECT * FROM failed_visits")]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, sql: str, params: Tuple = ()) -> List[sqlite3.Row]:
        with self._lock:
            return list(self.connection.execute(sql, params))

    def javascript_records(self, visit_id: Optional[int] = None
                           ) -> List[Dict[str, Any]]:
        sql = "SELECT * FROM javascript"
        params: Tuple = ()
        if visit_id is not None:
            sql += " WHERE visit_id = ?"
            params = (visit_id,)
        return [dict(row) for row in self.query(sql, params)]

    def http_request_rows(self, visit_id: Optional[int] = None
                          ) -> List[Dict[str, Any]]:
        sql = "SELECT * FROM http_requests"
        params: Tuple = ()
        if visit_id is not None:
            sql += " WHERE visit_id = ?"
            params = (visit_id,)
        return [dict(row) for row in self.query(sql, params)]

    def cookie_rows(self, visit_id: Optional[int] = None
                    ) -> List[Dict[str, Any]]:
        sql = "SELECT * FROM javascript_cookies"
        params: Tuple = ()
        if visit_id is not None:
            sql += " WHERE visit_id = ?"
            params = (visit_id,)
        return [dict(row) for row in self.query(sql, params)]

    def saved_scripts(self) -> List[Dict[str, Any]]:
        return [dict(row) for row in self.query(
            "SELECT * FROM content WHERE content_type LIKE '%javascript%'")]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    TABLES = ("site_visits", "http_requests", "http_responses",
              "javascript", "javascript_cookies", "content",
              "crash_history", "failed_visits", "quarantined_sites",
              "telemetry")

    def export_table_csv(self, table: str, path: str) -> int:
        """Write one table to CSV; returns the number of rows written.

        Table names are validated against the schema (identifiers cannot
        be parameterised in SQL).
        """
        import csv

        if table not in self.TABLES:
            raise ValueError(f"unknown table {table!r}")
        rows = self.query(f"SELECT * FROM {table}")  # noqa: S608
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            if rows:
                writer.writerow(rows[0].keys())
                for row in rows:
                    writer.writerow(tuple(row))
        return len(rows)

    def export_all_csv(self, directory: str) -> Dict[str, int]:
        """Dump every table to ``<directory>/<table>.csv``."""
        import os

        os.makedirs(directory, exist_ok=True)
        return {table: self.export_table_csv(
            table, os.path.join(directory, f"{table}.csv"))
            for table in self.TABLES}

    def close(self) -> None:
        with self._lock:
            self.connection.commit()
            self.connection.close()

