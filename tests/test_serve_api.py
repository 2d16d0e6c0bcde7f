"""Tests for the serve query layer: endpoints, cache wiring, and the
reader/writer concurrency contract.

The concurrency class is the paper-facing claim: measurement results
can be inspected *while the crawl is still running* without the
readers ever seeing ``database is locked`` or a torn aggregate state —
WAL snapshots plus read-only per-thread connections, with the rollup
generation exposing exactly which state an answer came from.
"""

import json
import os
import shutil
import sqlite3
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.runner import run_telemetry_crawl
from repro.serve import ResultServer, ServeError, verify
from repro.serve.api import etag_for, json_get


def decode(response):
    return json.loads(response.body.decode("utf-8"))


class TestEndpoints:
    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve-api")
        db_path = str(tmp / "crawl.db")
        result = run_telemetry_crawl(
            site_count=8, seed=7, database_path=db_path,
            crash_probability=0.0, browsers=1, web="lab")
        result.close()
        server = ResultServer(db_path)
        yield server
        server.close()

    def test_missing_database_is_a_serve_error(self, tmp_path):
        with pytest.raises(ServeError):
            ResultServer(str(tmp_path / "nope.db"))

    def test_healthz_reports_fresh(self, server):
        response = server.respond("/healthz")
        assert response.status == 200
        payload = decode(response)
        assert payload["rollups"] == "fresh"
        assert payload["generation"] == response.generation > 0
        assert payload["sites"] == 8

    def test_sites_listing_is_sorted(self, server):
        payload = decode(server.respond("/sites"))
        assert payload["count"] == 8
        assert payload["sites"] == sorted(payload["sites"])

    def test_site_verdict_card(self, server):
        url = decode(server.respond("/sites"))["sites"][0]
        response = server.respond("/site", f"url={url}")
        assert response.status == 200
        payload = decode(response)
        assert payload["site_url"] == url
        assert payload["verdicts"]["visited"] is True
        assert payload["counters"]["visits"] >= 1

    def test_site_requires_exactly_one_url(self, server):
        assert server.respond("/site").status == 400
        assert server.respond("/site", "url=a&url=b").status == 400

    def test_unknown_site_is_404(self, server):
        response = server.respond("/site", "url=https://nope.test/")
        assert response.status == 404

    def test_aggregates_and_unknown_aggregate(self, server):
        response = server.respond("/aggregates/totals")
        assert response.status == 200
        assert decode(response)["totals"]["site_visits"] == 8
        response = server.respond("/aggregates/bogus")
        assert response.status == 404
        assert "known" in decode(response)

    def test_unknown_corpus_hash_is_404(self, server):
        assert server.respond("/corpus/" + "0" * 64).status == 404

    def test_unknown_route_is_404(self, server):
        assert server.respond("/bogus").status == 404

    def test_metrics_exposes_prometheus_text(self, server):
        server.respond("/aggregates/totals")
        response = server.respond("/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        assert b"serve_requests_total" in response.body

    def test_cache_serves_repeat_requests(self, server):
        server.cache.clear()
        first = server.respond("/aggregates/symbols")
        hits_before = server.cache.stats()["hits"]
        second = server.respond("/aggregates/symbols")
        assert second.body == first.body
        assert server.cache.stats()["hits"] == hits_before + 1

    def test_http_transport_sets_generation_header(self, server):
        port = server.start()
        url = f"http://127.0.0.1:{port}/aggregates/totals"
        with urllib.request.urlopen(url, timeout=10) as response:
            generation = int(response.headers["X-Rollup-Generation"])
            payload = json.loads(response.read())
        assert generation > 0
        assert payload["totals"]["site_visits"] == 8
        status, payload = json_get(
            f"http://127.0.0.1:{port}/aggregates/bogus")
        assert status == 404 and "known" in payload

    def test_ensure_backfills_a_stale_database(self, tmp_path):
        db_path = str(tmp_path / "cold.db")
        os.environ["REPRO_ROLLUPS"] = "off"
        try:
            result = run_telemetry_crawl(
                site_count=4, seed=7, database_path=db_path,
                crash_probability=0.0, browsers=1, web="lab")
            result.close()
        finally:
            del os.environ["REPRO_ROLLUPS"]
        server = ResultServer(db_path, ensure=False)
        try:
            assert server.respond("/aggregates/totals").status == 503
            assert server.respond("/healthz").status == 503
            assert server.ensure_rollups() == "fresh"
            response = server.respond("/aggregates/totals")
            assert response.status == 200
            assert decode(response)["totals"]["site_visits"] == 4
        finally:
            server.close()


class TestConditionalRequests:
    """The ETag **is** the rollup generation, so ``If-None-Match``
    turns a repeat poll into an empty 304 whenever no crawl data
    changed."""

    @pytest.fixture(scope="class")
    def database(self, tmp_path_factory):
        db_path = str(tmp_path_factory.mktemp("serve-etag") / "crawl.db")
        result = run_telemetry_crawl(
            site_count=6, seed=7, database_path=db_path,
            crash_probability=0.0, browsers=1, web="lab")
        result.close()
        return db_path

    @pytest.fixture(scope="class")
    def server(self, database):
        server = ResultServer(database)
        yield server
        server.close()

    def test_etag_formats(self):
        assert etag_for(5) == '"g5"'

    def test_if_none_match_returns_empty_304(self, server):
        first = server.respond("/sites")
        assert first.status == 200
        assert first.etag == etag_for(first.generation)
        before = server.metrics.counter_value("serve_not_modified_total")
        again = server.respond("/sites", "", first.etag)
        assert again.status == 304
        assert again.body == b""
        assert again.etag == first.etag
        assert server.metrics.counter_value(
            "serve_not_modified_total") == before + 1

    def test_stale_etag_gets_full_response(self, server):
        first = server.respond("/sites")
        response = server.respond("/sites", "", '"g0"')
        assert response.status == 200
        assert response.body == first.body

    def test_not_modified_does_not_populate_cache(self, server):
        etag = server.respond("/aggregates/cookies").etag
        server.cache.clear()
        misses = server.cache.stats()["misses"]
        response = server.respond("/aggregates/cookies", "", etag)
        assert response.status == 304
        # The 304 short-circuits before the cache: no lookup, no fill.
        assert server.cache.stats()["misses"] == misses

    def test_http_transport_conditional_roundtrip(self, database):
        server = ResultServer(database)
        try:
            port = server.start()
            url = f"http://127.0.0.1:{port}/aggregates/totals"
            with urllib.request.urlopen(url, timeout=10) as response:
                etag = response.headers["ETag"]
                generation = response.headers["X-Rollup-Generation"]
                payload = json.loads(response.read())
            assert etag == etag_for(int(generation))
            assert payload["totals"]["site_visits"] == 6
            request = urllib.request.Request(
                url, headers={"If-None-Match": etag})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 304
            assert excinfo.value.headers["ETag"] == etag
            assert excinfo.value.read() == b""
        finally:
            server.close()

    def test_generation_bump_invalidates_held_etag(self, database,
                                                   tmp_path):
        """Advancing the rollup generation changes both the cache key
        and the ETag — a held ETag re-validates as 200 with a new
        tag."""
        db_path = str(tmp_path / "bumped.db")
        shutil.copy(database, db_path)
        server = ResultServer(db_path)
        try:
            first = server.respond("/aggregates/symbols")
            conn = sqlite3.connect(db_path)
            conn.execute(
                "UPDATE rollups_meta SET value = value + 1 "
                "WHERE key = 'generation'")
            conn.commit()
            conn.close()
            response = server.respond("/aggregates/symbols", "",
                                      first.etag)
            assert response.status == 200
            assert response.body == first.body
            assert response.etag != first.etag
            assert response.generation == first.generation + 1
        finally:
            server.close()


class TestLiveCrawlConcurrency:
    READERS = 4

    def test_readers_never_locked_during_proc_crawl(self, tmp_path):
        db_path = str(tmp_path / "live.db")
        queue_path = str(tmp_path / "live.queue")
        crawl_done = threading.Event()
        crawl_error = []

        def crawl():
            try:
                result = run_telemetry_crawl(
                    site_count=30, seed=7, database_path=db_path,
                    crash_probability=0.0, browsers=1, web="lab",
                    worker_procs=2, queue_path=queue_path)
                result.close()
            except Exception as exc:  # pragma: no cover - diagnostics
                crawl_error.append(exc)
            finally:
                crawl_done.set()

        writer = threading.Thread(target=crawl, name="crawl")
        writer.start()
        while not os.path.exists(db_path) and not crawl_done.is_set():
            pass

        # ensure=False: readers must stay strictly read-only while the
        # crawl owns the write path.
        server = ResultServer(db_path, ensure=False, cache_capacity=0)
        locked = []
        generations = {i: [] for i in range(self.READERS)}

        def hammer(reader_id):
            while not crawl_done.is_set():
                for path, query in (("/aggregates/totals", ""),
                                    ("/sites", ""), ("/healthz", "")):
                    try:
                        response = server.respond(path, query)
                    except sqlite3.OperationalError as exc:
                        locked.append((reader_id, repr(exc)))
                        return
                    assert response.status in (200, 503)
                    generations[reader_id].append(response.generation)

        readers = [threading.Thread(target=hammer, args=(i,))
                   for i in range(self.READERS)]
        for thread in readers:
            thread.start()
        writer.join(timeout=300)
        for thread in readers:
            thread.join(timeout=60)
        try:
            assert not crawl_error, crawl_error
            assert not locked, locked
            for reader_id, seen in generations.items():
                assert seen, f"reader {reader_id} never got a response"
                assert seen == sorted(seen), \
                    "rollup generation went backwards"
            # After the crawl the served state is complete and correct.
            response = server.respond("/aggregates/totals")
            assert response.status == 200
            assert decode(response)["totals"]["site_visits"] == 30
            connection = sqlite3.connect(db_path)
            try:
                assert verify(connection)["ok"]
            finally:
                connection.close()
        finally:
            server.close()
