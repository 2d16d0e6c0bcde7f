"""The query layer: a threaded stdlib HTTP server over the rollups.

``repro serve <db> --port N`` exposes JSON endpoints:

=========================  ===========================================
``/healthz``               rollup state, schema version, generation
``/metrics``               server metrics, Prometheus text format
``/sites``                 every known site (sorted)
``/site?url=<site-url>``   one site's verdict card
``/aggregates/<name>``     totals · symbols · resources · cookies ·
                           crashes · drop_reasons
``/corpus/<hash>``         occurrence stats + archived-body metadata
                           for one script hash
=========================  ===========================================

Concurrency model: the crawl writer owns the database's single write
connection (WAL journal mode); the server opens *read-only* SQLite
connections (``mode=ro``), one per handler thread. Each request runs
inside one explicit read transaction, so the generation it reports and
the aggregates it serves come from a single WAL snapshot — readers
never block the writer, the writer never gives readers a torn view,
and nobody sees ``database is locked``.

Cacheable responses are fronted by the LRU/TTL cache keyed under the
snapshot's rollup generation (see :mod:`repro.serve.cache`); the
``X-Rollup-Generation`` header exposes which generation an answer came
from. ``/healthz`` and ``/metrics`` bypass the cache.

Conditional requests: every cacheable 200 carries an ``ETag`` derived
from the rollup generation, and a request whose ``If-None-Match``
matches the current generation's tag gets a body-less ``304 Not
Modified`` — correct because *every* mutation of served state bumps the
generation, so an unchanged generation means unchanged bytes.

``ResultServer.respond`` is transport-independent — tests and the
benchmark drive it directly; the HTTP layer only adds sockets.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.serve import rollups
from repro.serve.aggregates import (
    AGGREGATE_BUILDERS,
    encode_payload,
    healthz_payload,
    script_payload,
    site_payload,
    sites_payload,
)
from repro.serve.cache import CachedResponse, ResponseCache


class ServeError(RuntimeError):
    """The server cannot run against this database."""


def etag_for(generation: int) -> str:
    """The strong entity tag for a rollup generation.

    ``5`` → ``"g5"``. Any mutation of served state bumps the
    generation, so equal tags imply byte-equal payloads.
    """
    return f'"g{generation}"'


class ResultServer:
    """Serves one crawl database's aggregates over HTTP."""

    def __init__(self, database_path: str, host: str = "127.0.0.1",
                 port: int = 0, cache_capacity: int = 512,
                 cache_ttl: float = 30.0, clock: Any = None,
                 ensure: bool = True) -> None:
        import os

        if not os.path.isfile(database_path):
            raise ServeError(f"no crawl database at {database_path!r}")
        self.database_path = database_path
        self.host = host
        self.port = port
        self.cache = ResponseCache(capacity=cache_capacity,
                                   ttl=cache_ttl, clock=clock)
        from repro.obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self._local = threading.local()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        if ensure:
            self.ensure_rollups()

    # -- rollup lifecycle ---------------------------------------------
    def ensure_rollups(self) -> str:
        """Backfill stale/absent rollups before serving from them.

        Needs a moment of write access; skipped automatically when the
        rollups are already fresh (the live-crawl maintenance path).
        """
        connection = sqlite3.connect(self.database_path)
        try:
            state = rollups.rollups_state(connection)
            if state != "fresh":
                rollups.build(connection)
            return rollups.rollups_state(connection)
        finally:
            connection.close()

    # -- per-thread read-only connections -----------------------------
    def _connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = sqlite3.connect(
                f"file:{self.database_path}?mode=ro", uri=True,
                isolation_level=None)
            connection.execute("PRAGMA busy_timeout = 10000")
            self._local.connection = connection
        return connection

    # -- request core (transport-independent) -------------------------
    def respond(self, path: str, query: str = "",
                if_none_match: Optional[str] = None) -> CachedResponse:
        """Answer one GET; returns the response the transport sends."""
        if path == "/healthz":
            return self._uncached(path)
        if path == "/metrics":
            from repro.obs.export import metrics_to_prometheus

            self.metrics.counter("serve_requests_total",
                                 endpoint="metrics").inc()
            return CachedResponse(
                body=metrics_to_prometheus(
                    self.metrics.snapshot()).encode("utf-8"),
                content_type="text/plain; version=0.0.4")
        return self._cached(path, query, if_none_match)

    def _uncached(self, path: str) -> CachedResponse:
        self.metrics.counter("serve_requests_total",
                             endpoint="healthz").inc()
        connection = self._connection()
        connection.execute("BEGIN")
        try:
            payload = healthz_payload(connection, self.database_path)
        finally:
            connection.execute("COMMIT")
        status = 200 if payload["rollups"] == "fresh" else 503
        return CachedResponse(body=encode_payload(payload),
                              status=status,
                              generation=payload["generation"])

    def _cached(self, path: str, query: str,
                if_none_match: Optional[str] = None) -> CachedResponse:
        key = f"{path}?{query}" if query else path
        connection = self._connection()
        # One explicit transaction per request: the generation below
        # and every row the builder reads come from the same WAL
        # snapshot, so a concurrent writer can never give us a torn
        # answer (generation G with generation-G+1 aggregates).
        connection.execute("BEGIN")
        try:
            generation = rollups.generation(connection)
            fresh = rollups.rollups_state(connection) == "fresh"
            etag = etag_for(generation)
            if (fresh and if_none_match is not None
                    and if_none_match.strip() == etag):
                # The client's tag matches the live generation, and
                # every mutation of served state bumps the generation:
                # whatever 200 produced that tag would re-encode to
                # the same bytes. Skip building (and the cache — a 304
                # carries no body worth storing).
                self.metrics.counter("serve_not_modified_total").inc()
                return CachedResponse(body=b"", status=304,
                                      generation=generation,
                                      etag=etag)
            entry = self.cache.get(key, generation)
            if entry is not None:
                self.metrics.counter("serve_cache_hits_total").inc()
                entry.etag = etag
                return entry
            self.metrics.counter("serve_cache_misses_total").inc()
            body, status, endpoint = self._build(connection, path,
                                                 query)
        finally:
            connection.execute("COMMIT")
        self.metrics.counter("serve_requests_total",
                             endpoint=endpoint).inc()
        if status != 200:
            return CachedResponse(body=body, status=status,
                                  generation=generation)
        entry = self.cache.put(key, generation, body)
        entry.etag = etag
        return entry

    def _build(self, connection: sqlite3.Connection, path: str,
               query: str) -> Tuple[bytes, int, str]:
        """Render one payload inside the caller's read transaction."""
        if rollups.rollups_state(connection) != "fresh":
            return (encode_payload(
                {"error": "rollups are "
                          + rollups.rollups_state(connection)
                          + "; run `repro serve build`"}), 503, "stale")
        if path == "/sites":
            return encode_payload(sites_payload(connection)), 200, \
                "sites"
        if path == "/site":
            params = parse_qs(query)
            urls = params.get("url", [])
            if len(urls) != 1:
                return encode_payload(
                    {"error": "expected exactly one url= parameter"}), \
                    400, "site"
            payload = site_payload(connection, urls[0])
            if payload is None:
                return encode_payload(
                    {"error": f"unknown site {urls[0]!r}"}), 404, "site"
            return encode_payload(payload), 200, "site"
        if path.startswith("/aggregates/"):
            name = path[len("/aggregates/"):]
            builder = AGGREGATE_BUILDERS.get(name)
            if builder is None:
                return encode_payload(
                    {"error": f"unknown aggregate {name!r}",
                     "known": sorted(AGGREGATE_BUILDERS)}), 404, \
                    "aggregates"
            return encode_payload(builder(connection)), 200, \
                "aggregates"
        if path.startswith("/corpus/"):
            digest = unquote(path[len("/corpus/"):])
            payload = script_payload(connection, digest)
            if payload is None:
                return encode_payload(
                    {"error": f"unknown script hash {digest!r}"}), \
                    404, "corpus"
            return encode_payload(payload), 200, "corpus"
        return encode_payload({"error": f"no route for {path!r}"}), \
            404, "unknown"

    # -- HTTP plumbing ------------------------------------------------
    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port
        (meaningful with ``port=0`` ephemeral binds)."""
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib name)
                split = urlsplit(self.path)
                try:
                    response = server.respond(
                        split.path, split.query,
                        self.headers.get("If-None-Match"))
                except Exception as exc:  # pragma: no cover - guard
                    server.metrics.counter("serve_errors_total").inc()
                    response = CachedResponse(
                        body=encode_payload({"error": repr(exc)}),
                        status=500)
                self.send_response(response.status)
                self.send_header("Content-Type",
                                 response.content_type)
                self.send_header("Content-Length",
                                 str(len(response.body)))
                self.send_header("X-Rollup-Generation",
                                 str(response.generation))
                if response.etag:
                    self.send_header("ETag", response.etag)
                self.end_headers()
                self.wfile.write(response.body)

            def log_message(self, *args: Any) -> None:
                pass  # journald duty belongs to the telemetry layer

        self._httpd = ThreadingHTTPServer((self.host, self.port),
                                          Handler)
        self._httpd.daemon_threads = True
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve", daemon=True)
        self._thread.start()
        return self.port

    def serve_forever(self) -> None:
        """Foreground serving for the CLI (Ctrl-C returns)."""
        if self._httpd is None:
            self.start()
        assert self._thread is not None
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None


def json_get(url: str, timeout: float = 10.0) -> Tuple[int, Any]:
    """Tiny stdlib GET helper for tests/CI: (status, decoded JSON)."""
    from urllib.error import HTTPError
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except HTTPError as error:
        body = error.read()
        try:
            return error.code, json.loads(body)
        except (ValueError, TypeError):
            return error.code, body.decode("utf-8", "replace")
