"""Incremental aggregation into read-optimized rollup tables.

The batch pipeline (``repro stats``, the scan tables) answers every
question by scanning the raw crawl tables. That is fine for a one-shot
report but not for a serving layer: the north-star read path answers
the same aggregate queries thousands of times per second, and a
``COUNT(*)`` over millions of ``javascript`` rows per request does not
survive contact with that. This module folds per-visit verdicts,
detector counts, category rollups, and corpus occurrence stats into
small ``rollups_*`` tables maintained *incrementally* as the crawl
writes — each served query then reads a handful of pre-aggregated rows.

Correctness story (the whole point, per the paper's gullibility
lesson): the rollups are never trusted on faith. Every aggregate has a
*batch twin* computed straight from the raw tables (:func:`batch_state`)
and the differential harness pins the two byte-for-byte across live
incremental maintenance, cold backfill (:func:`build`), resume, and
lease races. The maintenance hooks are fed by the one insert path of
:class:`repro.openwpm.storage.StorageController`,
``record_envelope``. The crawl database
is only ever appended to (a voided attempt's envelope is dropped
before it is written), so the inverse hooks (``visit_retracted``,
``failed_retracted``, ``quarantine_retracted``) have no caller in the
crawl; they stay defined because ``perfbench`` wraps them by name.

Table layout (``ROLLUP_SCHEMA_VERSION`` gates compatibility; all
tables are WITHOUT ROWID with natural keys, so their physical content
is a pure function of the aggregate state, not of insertion order):

``rollups_meta``          key/value: schema version, state, generation
``rollups_totals``        per-table row counts (the ``stats`` db section)
``rollups_sites``         per-site verdict counters (one row per site)
``rollups_symbols``       detector counts: (symbol, operation) -> n
``rollups_resources``     category rollup: (resource_type, 3rd-party) -> n
``rollups_cookie_hosts``  cookie rows per host
``rollups_crashes``       crash_history rows per action
``rollups_drop_reasons``  failed_visits rows per reason
``rollups_scripts``       corpus occurrences: content_hash -> refs
``rollups_script_sites``  corpus occurrences per (hash, site)

The *generation* counter in ``rollups_meta`` increments on every
rollup mutation; the serving layer keys its response cache under it, so
a cached answer can never outlive the aggregate state it was computed
from. Generation counts operations, not state — it is excluded from
cross-run database comparisons (CI treats ``rollups_meta`` as volatile,
like ``telemetry``).

``state`` is ``fresh`` (rollups trusted) or ``stale`` (raw tables have
moved without maintenance — e.g. ``REPRO_ROLLUPS=off`` runs, a
schema-version bump, or a crash between a raw-table commit and its
rollup application detected by the cheap open-time consistency probe).
Stale rollups are ignored by every consumer until ``repro serve build``
rebuilds them.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Bump on any incompatible change to the rollup table layout. A
#: database carrying a different version is rebuilt from scratch by
#: ``ensure_schema`` (and marked stale until then).
ROLLUP_SCHEMA_VERSION = 1

ROLLUP_TABLES = (
    "rollups_meta", "rollups_totals", "rollups_sites",
    "rollups_symbols", "rollups_resources", "rollups_cookie_hosts",
    "rollups_crashes", "rollups_drop_reasons", "rollups_scripts",
    "rollups_script_sites")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS rollups_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rollups_totals (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rollups_sites (
    site_url TEXT PRIMARY KEY,
    visits INTEGER NOT NULL DEFAULT 0,
    js_rows INTEGER NOT NULL DEFAULT 0,
    http_rows INTEGER NOT NULL DEFAULT 0,
    response_rows INTEGER NOT NULL DEFAULT 0,
    cookie_rows INTEGER NOT NULL DEFAULT 0,
    third_party_requests INTEGER NOT NULL DEFAULT 0,
    webdriver_probes INTEGER NOT NULL DEFAULT 0,
    crashes INTEGER NOT NULL DEFAULT 0,
    failed INTEGER NOT NULL DEFAULT 0,
    quarantined INTEGER NOT NULL DEFAULT 0
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rollups_symbols (
    symbol TEXT NOT NULL,
    operation TEXT NOT NULL,
    count INTEGER NOT NULL,
    PRIMARY KEY (symbol, operation)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rollups_resources (
    resource_type TEXT NOT NULL,
    is_third_party INTEGER NOT NULL,
    count INTEGER NOT NULL,
    PRIMARY KEY (resource_type, is_third_party)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rollups_cookie_hosts (
    host TEXT PRIMARY KEY,
    count INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rollups_crashes (
    action TEXT PRIMARY KEY,
    count INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rollups_drop_reasons (
    reason TEXT PRIMARY KEY,
    count INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rollups_scripts (
    content_hash TEXT PRIMARY KEY,
    refs INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rollups_script_sites (
    content_hash TEXT NOT NULL,
    site_url TEXT NOT NULL,
    refs INTEGER NOT NULL,
    PRIMARY KEY (content_hash, site_url)
) WITHOUT ROWID;
"""

#: The per-site verdict "did a script probe the automation flag" —
#: substring match so wrapped symbols (``window.navigator.webdriver``)
#: count too. The SQL twin is ``instr(symbol, ...) > 0`` (also a
#: case-sensitive substring test), keeping both sides equivalent.
WEBDRIVER_MARKER = "navigator.webdriver"

#: rollups_totals keys, in the raw table they mirror.
TOTAL_NAMES = ("site_visits", "http_requests", "http_responses",
               "javascript", "javascript_cookies", "content",
               "crash_history", "failed_visits", "quarantined_sites")


class VisitDelta:
    """The rollup contribution of one visit, accumulated row by row.

    Fed the *exact* tuples ``StorageController.record_envelope``
    inserts (column order of the visit tables, leading ``visit_id``),
    and only from there — one code path, one definition of every
    aggregate.
    """

    __slots__ = ("tables", "symbols", "resources", "cookie_hosts",
                 "scripts", "third_party", "webdriver_probes")

    def __init__(self) -> None:
        self.tables: Counter = Counter()
        self.symbols: Counter = Counter()
        self.resources: Counter = Counter()
        self.cookie_hosts: Counter = Counter()
        self.scripts: Counter = Counter()
        self.third_party = 0
        self.webdriver_probes = 0

    def add_row(self, table: str, row: Tuple) -> None:
        self.tables[table] += 1
        if table == "http_requests":
            # (visit_id, browser_id, url, top_level_url, frame_url,
            #  method, resource_type, is_third_party, headers, post_body)
            third = int(row[7] or 0)
            self.resources[(str(row[6] or ""), 1 if third else 0)] += 1
            if third:
                self.third_party += 1
        elif table == "http_responses":
            # (visit_id, browser_id, url, status, content_type, hash)
            if row[5]:
                self.scripts[str(row[5])] += 1
        elif table == "javascript":
            # (visit_id, browser_id, top_level_url, document_url,
            #  script_url, symbol, operation, ...)
            symbol = str(row[5] or "")
            self.symbols[(symbol, str(row[6] or ""))] += 1
            if WEBDRIVER_MARKER in symbol:
                self.webdriver_probes += 1
        elif table == "javascript_cookies":
            # (visit_id, browser_id, record_type, change_cause, host, ...)
            self.cookie_hosts[str(row[4] or "")] += 1

    def is_empty(self) -> bool:
        return not (self.tables or self.third_party
                    or self.webdriver_probes)


def _meta_get(connection: sqlite3.Connection, key: str
              ) -> Optional[str]:
    row = connection.execute(
        "SELECT value FROM rollups_meta WHERE key = ?", (key,)).fetchone()
    if row is None:
        return None
    return str(row[0])


def _meta_set(connection: sqlite3.Connection, key: str,
              value: str) -> None:
    connection.execute(
        "INSERT INTO rollups_meta (key, value) VALUES (?, ?) "
        "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
        (key, value))


def rollups_present(connection: sqlite3.Connection) -> bool:
    """Does the database carry rollup tables at the current version?"""
    row = connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' "
        "AND name = 'rollups_meta'").fetchone()
    if row is None:
        return False
    return _meta_get(connection, "schema_version") \
        == str(ROLLUP_SCHEMA_VERSION)


def rollups_state(connection: sqlite3.Connection) -> str:
    """``fresh``, ``stale``, or ``absent``."""
    if not rollups_present(connection):
        return "absent"
    return _meta_get(connection, "state") or "stale"


def generation(connection: sqlite3.Connection) -> int:
    """The rollup generation counter (0 when rollups are absent)."""
    try:
        value = _meta_get(connection, "generation")
    except sqlite3.OperationalError:
        return 0
    return int(value or 0)


class RollupMaintainer:
    """Keeps the rollup tables in lock-step with the raw tables.

    Owned by a :class:`StorageController` and fed only by its
    ``record_envelope``; every hook is called with the controller's
    lock held and joins the envelope's transaction, so a rollup update
    commits (or rolls back) atomically with the raw rows it mirrors (a
    crash can never land one without the other).

    When maintenance is disabled (``REPRO_ROLLUPS=off``) the hooks
    degrade to marking any existing rollups ``stale`` on the first raw
    mutation — served answers must never silently drift from ground
    truth; they go missing instead, until ``repro serve build`` runs.
    """

    def __init__(self, connection: sqlite3.Connection,
                 enabled: bool = True) -> None:
        self.connection = connection
        self.enabled = enabled
        if enabled:
            self.ensure_schema()

    # -- schema / lifecycle -------------------------------------------
    def ensure_schema(self) -> None:
        """Create (or version-migrate) the rollup tables.

        A version mismatch drops and recreates them; an existing
        database that already has crawl data gets ``state = stale``
        (the backfill is the caller's explicit, potentially expensive
        decision), while a virgin database starts ``fresh`` at
        generation 0 — incremental maintenance keeps it fresh from the
        first visit on.
        """
        version = None
        if self.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name = 'rollups_meta'").fetchone() is not None:
            version = _meta_get(self.connection, "schema_version")
        if version is not None \
                and version != str(ROLLUP_SCHEMA_VERSION):
            for table in ROLLUP_TABLES:
                self.connection.execute(f"DROP TABLE IF EXISTS {table}")
            version = None
        self.connection.executescript(_SCHEMA)
        if version is None:
            has_data = self.connection.execute(
                "SELECT 1 FROM site_visits LIMIT 1").fetchone() \
                is not None or self.connection.execute(
                "SELECT 1 FROM failed_visits LIMIT 1").fetchone() \
                is not None
            _meta_set(self.connection, "schema_version",
                      str(ROLLUP_SCHEMA_VERSION))
            _meta_set(self.connection, "state",
                      "stale" if has_data else "fresh")
            _meta_set(self.connection, "generation", "0")
            self.connection.commit()
        elif self._consistency_probe_fails():
            # A previous run died between a raw-table commit and its
            # rollup application (or wrote with maintenance off and
            # never got marked): don't trust what's here.
            _meta_set(self.connection, "state", "stale")
            self.connection.commit()

    def _consistency_probe_fails(self) -> bool:
        """Cheap open-time cross-check: headline counts must agree."""
        if rollups_state(self.connection) != "fresh":
            return False
        for table in ("site_visits", "failed_visits",
                      "quarantined_sites"):
            raw = int(self.connection.execute(
                f"SELECT COUNT(*) FROM {table}"  # noqa: S608
            ).fetchone()[0])
            row = self.connection.execute(
                "SELECT value FROM rollups_totals WHERE name = ?",
                (table,)).fetchone()
            if raw != int(row[0] if row else 0):
                return True
        return False

    def is_fresh(self) -> bool:
        if not self.enabled:
            return False
        return rollups_state(self.connection) == "fresh"

    def generation(self) -> int:
        return generation(self.connection)

    # -- shared mutation plumbing -------------------------------------
    def _active(self) -> bool:
        """Should this mutation maintain rollups (vs mark them stale)?"""
        if self.enabled:
            return True
        # Read, not remembered: a rolled-back transaction takes its
        # stale mark with it, so the next mutation must mark again.
        if rollups_state(self.connection) == "fresh":
            _meta_set(self.connection, "state", "stale")
        return False

    def _bump(self) -> None:
        self.connection.execute(
            "UPDATE rollups_meta SET value = CAST(value AS INTEGER) + 1 "
            "WHERE key = 'generation'")

    def _add_total(self, name: str, amount: int) -> None:
        if amount:
            self.connection.execute(
                "INSERT INTO rollups_totals (name, value) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET "
                "value = value + excluded.value", (name, amount))

    def _add_counter(self, table: str, keys: Tuple[str, ...],
                     items: Iterable[Tuple[Tuple, int]],
                     sign: int, value_col: str = "count") -> None:
        rows = [key + (sign * count,) for key, count in items if count]
        if not rows:
            return
        cols = ", ".join(keys)
        marks = ", ".join("?" for _ in range(len(keys) + 1))
        conflict = ", ".join(keys)
        self.connection.executemany(
            f"INSERT INTO {table} ({cols}, {value_col}) "  # noqa: S608
            f"VALUES ({marks}) ON CONFLICT({conflict}) DO UPDATE SET "
            f"{value_col} = {value_col} + excluded.{value_col}", rows)
        if sign < 0:
            self.connection.execute(
                f"DELETE FROM {table} "  # noqa: S608
                f"WHERE {value_col} <= 0")

    def _add_site(self, site_url: str, column_amounts: Dict[str, int],
                  ) -> None:
        amounts = {col: n for col, n in column_amounts.items() if n}
        if not amounts:
            return
        cols = list(amounts)
        self.connection.execute(
            "INSERT INTO rollups_sites (site_url, "
            + ", ".join(cols) + ") VALUES (?" + ", ?" * len(cols)
            + ") ON CONFLICT(site_url) DO UPDATE SET "
            + ", ".join(f"{col} = {col} + excluded.{col}"
                        for col in cols),
            (site_url,) + tuple(amounts[col] for col in cols))
        self.connection.execute(
            "DELETE FROM rollups_sites WHERE visits <= 0 "
            "AND js_rows <= 0 AND http_rows <= 0 AND response_rows <= 0 "
            "AND cookie_rows <= 0 AND crashes <= 0 AND failed <= 0 "
            "AND quarantined <= 0")

    def _apply_delta(self, site_url: str, delta: VisitDelta,
                     sign: int, visits: int = 1) -> None:
        self._add_total("site_visits", sign * visits)
        for table in ("http_requests", "http_responses", "javascript",
                      "javascript_cookies"):
            self._add_total(table, sign * delta.tables[table])
        self._add_site(site_url, {
            "visits": sign * visits,
            "js_rows": sign * delta.tables["javascript"],
            "http_rows": sign * delta.tables["http_requests"],
            "response_rows": sign * delta.tables["http_responses"],
            "cookie_rows": sign * delta.tables["javascript_cookies"],
            "third_party_requests": sign * delta.third_party,
            "webdriver_probes": sign * delta.webdriver_probes,
        })
        self._add_counter("rollups_symbols", ("symbol", "operation"),
                          delta.symbols.items(), sign)
        self._add_counter(
            "rollups_resources", ("resource_type", "is_third_party"),
            delta.resources.items(), sign)
        self._add_counter("rollups_cookie_hosts", ("host",),
                          [((host,), count) for host, count
                           in delta.cookie_hosts.items()], sign)
        self._add_counter("rollups_scripts", ("content_hash",),
                          [((digest,), count) for digest, count
                           in delta.scripts.items()], sign,
                          value_col="refs")
        self._add_counter(
            "rollups_script_sites", ("content_hash", "site_url"),
            [((digest, site_url), count) for digest, count
             in delta.scripts.items()], sign, value_col="refs")
        self._bump()

    # -- mutation hooks (called by StorageController.record_envelope) -
    def visit_committed(self, site_url: str,
                        delta: VisitDelta) -> None:
        if self._active():
            self._apply_delta(site_url, delta, +1)

    def visit_retracted(self, visit_id: int) -> None:
        """Fold a doomed committed visit *out* before its rows go.

        Must run while the rows still exist; the negative delta is derived from the database itself, through the
        same ``add_row`` accounting that folded the rows in — so the
        decrement is exactly the original increment.
        """
        if not self._active():
            return
        row = self.connection.execute(
            "SELECT site_url FROM site_visits WHERE visit_id = ?",
            (visit_id,)).fetchone()
        if row is None:
            return
        site_url = str(row[0])
        delta = VisitDelta()
        for table, columns in (
                ("http_requests",
                 "visit_id, browser_id, url, top_level_url, frame_url, "
                 "method, resource_type, is_third_party_channel, "
                 "headers, post_body"),
                ("http_responses",
                 "visit_id, browser_id, url, response_status, "
                 "content_type, content_hash"),
                ("javascript",
                 "visit_id, browser_id, top_level_url, document_url, "
                 "script_url, symbol, operation, value, arguments, "
                 "call_stack"),
                ("javascript_cookies",
                 "visit_id, browser_id, record_type, change_cause, "
                 "host, name, value, path, is_session, is_http_only, "
                 "expiry, first_party_domain, via_javascript")):
            for raw in self.connection.execute(
                    f"SELECT {columns} FROM {table} "  # noqa: S608
                    f"WHERE visit_id = ? ORDER BY id", (visit_id,)):
                delta.add_row(table, tuple(raw))
        self._apply_delta(site_url, delta, -1)

    def content_inserted(self, count: int) -> None:
        """``content`` rows that actually landed (post OR IGNORE dedup).

        Content rows are visit-less and survive aborts, so they are
        booked from the envelope's insert count rather than through a
        visit delta.
        """
        if count and self._active():
            self._add_total("content", count)
            self._bump()

    def crash_recorded(self, site_url: str, action: str) -> None:
        if not self._active():
            return
        self._add_total("crash_history", 1)
        self._add_counter("rollups_crashes", ("action",),
                          [((str(action or ""),), 1)], +1)
        self._add_site(str(site_url or ""), {"crashes": 1})
        self._bump()

    def failed_recorded(self, site_url: str, reason: str) -> None:
        if not self._active():
            return
        self._add_total("failed_visits", 1)
        self._add_counter("rollups_drop_reasons", ("reason",),
                          [((str(reason or ""),), 1)], +1)
        self._add_site(str(site_url), {"failed": 1})
        self._bump()

    def failed_retracted(self, site_url: str) -> None:
        """Must run *before* the site's failed_visits rows are deleted."""
        if not self._active():
            return
        rows = self.connection.execute(
            "SELECT reason, COUNT(*) FROM failed_visits "
            "WHERE site_url = ? GROUP BY reason", (site_url,)).fetchall()
        total = sum(int(row[1]) for row in rows)
        if not total:
            return
        self._add_total("failed_visits", -total)
        self._add_counter("rollups_drop_reasons", ("reason",),
                          [((str(row[0] or ""),), int(row[1]))
                           for row in rows], -1)
        self._add_site(site_url, {"failed": -total})
        self._bump()

    def quarantine_recorded(self, site_url: str,
                            inserted: bool) -> None:
        if inserted and self._active():
            self._add_total("quarantined_sites", 1)
            self._add_site(site_url, {"quarantined": 1})
            self._bump()

    def quarantine_retracted(self, site_url: str,
                             deleted: int) -> None:
        if deleted and self._active():
            self._add_total("quarantined_sites", -deleted)
            self._add_site(site_url, {"quarantined": -deleted})
            self._bump()


# ----------------------------------------------------------------------
# Batch twin + backfill + verification
# ----------------------------------------------------------------------
def batch_state(connection: sqlite3.Connection) -> Dict[str, Any]:
    """Every rollup aggregate recomputed from the raw tables.

    The ground truth the incremental tables are verified against and
    rebuilt from; returned as plain dicts keyed exactly like the
    rollup tables' natural keys.
    """
    def rows(sql: str) -> List[Tuple]:
        return [tuple(row) for row in connection.execute(sql)]

    totals = {}
    for table in TOTAL_NAMES:
        totals[table] = int(connection.execute(
            f"SELECT COUNT(*) FROM {table}"  # noqa: S608
        ).fetchone()[0])

    sites: Dict[str, Dict[str, int]] = {}

    def site(url: str) -> Dict[str, int]:
        return sites.setdefault(str(url), {
            "visits": 0, "js_rows": 0, "http_rows": 0,
            "response_rows": 0, "cookie_rows": 0,
            "third_party_requests": 0, "webdriver_probes": 0,
            "crashes": 0, "failed": 0, "quarantined": 0})

    for url, n in rows("SELECT site_url, COUNT(*) FROM site_visits "
                       "GROUP BY site_url"):
        site(url)["visits"] = int(n)
    joins = (
        ("js_rows", "javascript", ""),
        ("http_rows", "http_requests", ""),
        ("response_rows", "http_responses", ""),
        ("cookie_rows", "javascript_cookies", ""),
        ("third_party_requests", "http_requests",
         "WHERE t.is_third_party_channel = 1"),
        ("webdriver_probes", "javascript",
         f"WHERE instr(t.symbol, '{WEBDRIVER_MARKER}') > 0"),
    )
    for column, table, where in joins:
        for url, n in rows(
                f"SELECT sv.site_url, COUNT(*) FROM {table} t "  # noqa: S608
                f"JOIN site_visits sv ON sv.visit_id = t.visit_id "
                f"{where} GROUP BY sv.site_url"):
            site(url)[column] = int(n)
    for url, n in rows("SELECT COALESCE(site_url, ''), COUNT(*) "
                       "FROM crash_history "
                       "GROUP BY COALESCE(site_url, '')"):
        site(url)["crashes"] = int(n)
    for url, n in rows("SELECT site_url, COUNT(*) FROM failed_visits "
                       "GROUP BY site_url"):
        site(url)["failed"] = int(n)
    for url, n in rows("SELECT site_url, COUNT(*) "
                       "FROM quarantined_sites GROUP BY site_url"):
        site(url)["quarantined"] = int(n)

    return {
        "totals": totals,
        "sites": sites,
        "symbols": {
            (str(sym or ""), str(op or "")): int(n)
            for sym, op, n in rows(
                "SELECT symbol, operation, COUNT(*) FROM javascript "
                "GROUP BY symbol, operation")},
        "resources": {
            (str(rtype or ""), 1 if third else 0): int(n)
            for rtype, third, n in rows(
                "SELECT resource_type, is_third_party_channel, "
                "COUNT(*) FROM http_requests "
                "GROUP BY resource_type, is_third_party_channel")},
        "cookie_hosts": {
            str(host or ""): int(n) for host, n in rows(
                "SELECT host, COUNT(*) FROM javascript_cookies "
                "GROUP BY host")},
        "crashes": {
            str(action or ""): int(n) for action, n in rows(
                "SELECT action, COUNT(*) FROM crash_history "
                "GROUP BY action")},
        "drop_reasons": {
            str(reason or ""): int(n) for reason, n in rows(
                "SELECT reason, COUNT(*) FROM failed_visits "
                "GROUP BY reason")},
        "scripts": {
            str(digest): int(n) for digest, n in rows(
                "SELECT content_hash, COUNT(*) FROM http_responses "
                "WHERE content_hash != '' AND content_hash IS NOT NULL "
                "GROUP BY content_hash")},
        "script_sites": {
            (str(digest), str(url)): int(n)
            for digest, url, n in rows(
                "SELECT r.content_hash, sv.site_url, COUNT(*) "
                "FROM http_responses r "
                "JOIN site_visits sv ON sv.visit_id = r.visit_id "
                "WHERE r.content_hash != '' "
                "AND r.content_hash IS NOT NULL "
                "GROUP BY r.content_hash, sv.site_url")},
    }


def rollup_state(connection: sqlite3.Connection) -> Dict[str, Any]:
    """The same shape as :func:`batch_state`, read from the rollups."""
    def rows(sql: str) -> List[Tuple]:
        return [tuple(row) for row in connection.execute(sql)]

    totals = {name: 0 for name in TOTAL_NAMES}
    for name, value in rows("SELECT name, value FROM rollups_totals"):
        if name in totals:
            totals[str(name)] = int(value)
    sites: Dict[str, Dict[str, int]] = {}
    for raw in connection.execute(
            "SELECT site_url, visits, js_rows, http_rows, "
            "response_rows, cookie_rows, third_party_requests, "
            "webdriver_probes, crashes, failed, quarantined "
            "FROM rollups_sites"):
        sites[str(raw[0])] = {
            "visits": int(raw[1]), "js_rows": int(raw[2]),
            "http_rows": int(raw[3]), "response_rows": int(raw[4]),
            "cookie_rows": int(raw[5]),
            "third_party_requests": int(raw[6]),
            "webdriver_probes": int(raw[7]), "crashes": int(raw[8]),
            "failed": int(raw[9]), "quarantined": int(raw[10])}
    return {
        "totals": totals,
        "sites": sites,
        "symbols": {(str(s), str(o)): int(n) for s, o, n in rows(
            "SELECT symbol, operation, count FROM rollups_symbols")},
        "resources": {(str(r), int(t)): int(n) for r, t, n in rows(
            "SELECT resource_type, is_third_party, count "
            "FROM rollups_resources")},
        "cookie_hosts": {str(h): int(n) for h, n in rows(
            "SELECT host, count FROM rollups_cookie_hosts")},
        "crashes": {str(a): int(n) for a, n in rows(
            "SELECT action, count FROM rollups_crashes")},
        "drop_reasons": {str(r): int(n) for r, n in rows(
            "SELECT reason, count FROM rollups_drop_reasons")},
        "scripts": {str(h): int(n) for h, n in rows(
            "SELECT content_hash, refs FROM rollups_scripts")},
        "script_sites": {(str(h), str(u)): int(n) for h, u, n in rows(
            "SELECT content_hash, site_url, refs "
            "FROM rollups_script_sites")},
    }


def build(connection: sqlite3.Connection) -> Dict[str, Any]:
    """Cold backfill: rebuild every rollup table from the raw tables.

    One transaction; the generation still moves *forward* (never
    resets) so response caches keyed under the old rollups invalidate.
    Returns a small summary of what was built.
    """
    state = batch_state(connection)
    old_generation = 0
    if connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name = 'rollups_meta'").fetchone() is not None:
        old_generation = generation(connection)
    for table in ROLLUP_TABLES:
        connection.execute(f"DROP TABLE IF EXISTS {table}")
    connection.executescript(_SCHEMA)
    connection.executemany(
        "INSERT INTO rollups_totals (name, value) VALUES (?, ?)",
        sorted(state["totals"].items()))
    connection.executemany(
        "INSERT INTO rollups_sites (site_url, visits, js_rows, "
        "http_rows, response_rows, cookie_rows, third_party_requests, "
        "webdriver_probes, crashes, failed, quarantined) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        [(url, c["visits"], c["js_rows"], c["http_rows"],
          c["response_rows"], c["cookie_rows"],
          c["third_party_requests"], c["webdriver_probes"],
          c["crashes"], c["failed"], c["quarantined"])
         for url, c in sorted(state["sites"].items())])
    connection.executemany(
        "INSERT INTO rollups_symbols (symbol, operation, count) "
        "VALUES (?, ?, ?)",
        [(sym, op, n) for (sym, op), n
         in sorted(state["symbols"].items())])
    connection.executemany(
        "INSERT INTO rollups_resources (resource_type, is_third_party, "
        "count) VALUES (?, ?, ?)",
        [(rtype, third, n) for (rtype, third), n
         in sorted(state["resources"].items())])
    connection.executemany(
        "INSERT INTO rollups_cookie_hosts (host, count) VALUES (?, ?)",
        sorted(state["cookie_hosts"].items()))
    connection.executemany(
        "INSERT INTO rollups_crashes (action, count) VALUES (?, ?)",
        sorted(state["crashes"].items()))
    connection.executemany(
        "INSERT INTO rollups_drop_reasons (reason, count) "
        "VALUES (?, ?)", sorted(state["drop_reasons"].items()))
    connection.executemany(
        "INSERT INTO rollups_scripts (content_hash, refs) "
        "VALUES (?, ?)", sorted(state["scripts"].items()))
    connection.executemany(
        "INSERT INTO rollups_script_sites (content_hash, site_url, "
        "refs) VALUES (?, ?, ?)",
        [(digest, url, n) for (digest, url), n
         in sorted(state["script_sites"].items())])
    _meta_set(connection, "schema_version", str(ROLLUP_SCHEMA_VERSION))
    _meta_set(connection, "state", "fresh")
    _meta_set(connection, "generation", str(old_generation + 1))
    connection.commit()
    return {
        "schema_version": ROLLUP_SCHEMA_VERSION,
        "generation": old_generation + 1,
        "sites": len(state["sites"]),
        "symbols": len(state["symbols"]),
        "scripts": len(state["scripts"]),
        "totals": state["totals"],
    }


def verify(connection: sqlite3.Connection) -> Dict[str, Any]:
    """Differential check: rollups vs the batch twin, key by key.

    Returns ``{"ok": bool, "state": ..., "mismatches": [...]}`` — the
    core of the equivalence harness and of ``repro serve verify``.
    """
    if not rollups_present(connection):
        return {"ok": False, "state": "absent", "mismatches": [
            {"section": "meta", "key": "schema_version",
             "rollup": None, "batch": ROLLUP_SCHEMA_VERSION}]}
    state = rollup_state(connection)
    truth = batch_state(connection)
    mismatches: List[Dict[str, Any]] = []
    for section in ("totals", "sites", "symbols", "resources",
                    "cookie_hosts", "crashes", "drop_reasons",
                    "scripts", "script_sites"):
        got, want = state[section], truth[section]
        for key in sorted(set(got) | set(want), key=repr):
            if got.get(key) != want.get(key):
                mismatches.append({
                    "section": section, "key": repr(key),
                    "rollup": got.get(key), "batch": want.get(key)})
    return {"ok": not mismatches,
            "state": rollups_state(connection),
            "generation": generation(connection),
            "mismatches": mismatches}
