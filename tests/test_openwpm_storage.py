"""Unit tests for the SQLite storage controller (incl. RQ6/RQ7 props)."""

import pytest

from repro.openwpm.storage import (
    StorageController,
    VisitRecorder,
    VisitStateError,
)
from repro.serve import verify


@pytest.fixture()
def storage():
    controller = StorageController(":memory:")
    yield controller
    controller.close()


class TestVisitLifecycle:
    def test_visit_ids_increment(self, storage):
        a = storage.begin_visit(0, "https://a.test/")
        storage.end_visit()
        b = storage.begin_visit(0, "https://b.test/")
        assert b.visit_id == a.visit_id + 1

    def test_records_outside_visit_raise(self, storage):
        """A write with no active visit is a loud failure, not a
        sentinel row (the old behaviour silently mis-attributed it)."""
        with pytest.raises(VisitStateError):
            storage.recorder.record_javascript("d", "s", "sym", "get", "v")
        assert storage.javascript_records() == []

    def test_double_begin_raises(self, storage):
        storage.begin_visit(0, "https://a.test/")
        with pytest.raises(VisitStateError):
            storage.begin_visit(0, "https://b.test/")

    def test_end_without_visit_raises(self, storage):
        with pytest.raises(VisitStateError):
            storage.end_visit(0)


class TestPerBrowserContexts:
    def test_interleaved_visits_attribute_by_browser(self, storage):
        """Two browsers mid-visit at once: each record lands on *its*
        browser's visit, never on whichever began last."""
        a = storage.begin_visit(0, "https://a.test/")
        b = storage.begin_visit(1, "https://b.test/")
        storage.recorder.record_javascript("d", "s", "symA", "get", "",
                                  browser_id=0)
        storage.recorder.record_javascript("d", "s", "symB", "get", "",
                                  browser_id=1)
        storage.end_visit(1)
        storage.end_visit(0)
        rows = {row["symbol"]: row for row in storage.javascript_records()}
        assert rows["symA"]["visit_id"] == a.visit_id
        assert rows["symA"]["top_level_url"] == "https://a.test/"
        assert rows["symB"]["visit_id"] == b.visit_id
        assert rows["symB"]["top_level_url"] == "https://b.test/"

    def test_ambiguous_write_raises_with_two_visits(self, storage):
        storage.begin_visit(0, "https://a.test/")
        storage.begin_visit(1, "https://b.test/")
        with pytest.raises(VisitStateError):
            storage.recorder.record_javascript("d", "s", "sym", "get", "")

    def test_end_visit_without_id_requires_single_visit(self, storage):
        storage.begin_visit(0, "https://a.test/")
        storage.begin_visit(1, "https://b.test/")
        with pytest.raises(VisitStateError):
            storage.end_visit()

    def test_handle_pins_browser_id(self, storage):
        h0 = storage.recorder.handle(0)
        h1 = storage.recorder.handle(1)
        h0.begin_visit("https://a.test/")
        h1.begin_visit("https://b.test/")
        h0.record_javascript("d", "s", "symA", "get", "")
        h1.record_http_request(
            url="https://cdn.test/a.js",
            top_level_url="https://b.test/",
            frame_url="https://b.test/", method="GET",
            resource_type="script", is_third_party=True)
        h1.end_visit()
        h0.end_visit()
        js = storage.javascript_records()[0]
        req = storage.http_request_rows()[0]
        assert js["browser_id"] == 0
        assert js["top_level_url"] == "https://a.test/"
        assert req["browser_id"] == 1
        assert req["visit_id"] != js["visit_id"]

    def test_handle_write_outside_own_visit_raises(self, storage):
        storage.begin_visit(1, "https://b.test/")
        with pytest.raises(VisitStateError):
            storage.recorder.handle(0).record_javascript("d", "s", "sym",
                                                         "get", "")


class TestSanitisation:
    def test_top_level_url_comes_from_controller(self, storage):
        """RQ6: forged events cannot spoof the visited site."""
        storage.begin_visit(1, "https://real-site.test/")
        storage.recorder.record_javascript(
            document_url="https://spoofed.test/",
            script_url="https://attacker.test/x.js",
            symbol="navigator.fake", operation="call",
            value="", arguments="", call_stack="")
        storage.end_visit()
        row = storage.javascript_records()[0]
        assert row["top_level_url"] == "https://real-site.test/"
        assert row["visit_id"] == 1

    def test_oversized_fields_truncated(self, storage):
        storage.begin_visit(1, "https://x.test/")
        storage.recorder.record_javascript("d", "s", "A" * 10_000, "get",
                                  "B" * 10_000)
        storage.end_visit()
        row = storage.javascript_records()[0]
        assert len(row["symbol"]) == 2048
        assert len(row["value"]) == 2048

    def test_sql_injection_payload_stored_inert(self, storage):
        """RQ7: parameterised statements defuse injection."""
        storage.begin_visit(1, "https://x.test/")
        payload = "'); DROP TABLE javascript; --"
        storage.recorder.record_javascript("d", "s", payload, "call",
                                           payload)
        storage.end_visit()
        # Table still exists and holds the payload verbatim.
        rows = storage.javascript_records()
        assert rows[0]["symbol"] == payload


class TestTables:
    def test_http_request_and_response(self, storage):
        storage.begin_visit(2, "https://x.test/")
        storage.recorder.record_http_request(
            url="https://cdn.test/a.js", top_level_url="https://x.test/",
            frame_url="https://x.test/", method="GET",
            resource_type="script", is_third_party=True)
        storage.recorder.record_http_response(url="https://cdn.test/a.js",
                                     status=200,
                                     content_type="text/javascript")
        storage.end_visit()
        requests = storage.http_request_rows()
        assert requests[0]["resource_type"] == "script"
        assert requests[0]["is_third_party_channel"] == 1

    def test_content_deduplicated_by_hash(self, storage):
        h1 = storage.recorder.record_content("var a;", "https://a.test/x.js",
                                    "text/javascript")
        h2 = storage.recorder.record_content("var a;", "https://b.test/y.js",
                                    "text/javascript")
        assert h1 == h2
        assert len(storage.saved_scripts()) == 1

    def test_cookie_rows(self, storage):
        storage.begin_visit(3, "https://x.test/")
        storage.recorder.record_cookie(
            change_cause="added-http", host="tracker.test", name="uid",
            value="abc12345", path="/", is_session=False,
            is_http_only=False, expiry=1000.0, first_party="x.test",
            via_javascript=False)
        storage.end_visit()
        row = storage.cookie_rows()[0]
        assert row["host"] == "tracker.test"
        assert row["is_session"] == 0

    def test_crash_history(self, storage):
        storage.recorder.record_crash(5, "https://dead.test/", "crash")
        rows = storage.query("SELECT * FROM crash_history")
        assert rows[0]["browser_id"] == 5

    def test_query_filter_by_visit(self, storage):
        storage.begin_visit(1, "https://a.test/")
        storage.recorder.record_javascript("d", "s", "sym1", "get", "")
        storage.end_visit()
        storage.begin_visit(1, "https://b.test/")
        storage.recorder.record_javascript("d", "s", "sym2", "get", "")
        storage.end_visit()
        assert len(storage.javascript_records(visit_id=2)) == 1


class TestBatchedWrites:
    """A recorder holds plain rows; the database sees them only when
    they land through ``record_envelope``, one executemany per table."""

    def test_records_buffered_until_flush(self, storage):
        """An open visit's rows are not in the database yet; ending the
        visit lands them."""
        storage.begin_visit(1, "https://a.test/")
        storage.recorder.record_javascript("d", "s", "sym", "get", "v")
        storage.recorder.record_http_request(
            url="https://a.test/x.js", top_level_url="https://a.test/",
            frame_url="", method="GET", resource_type="script",
            is_third_party=False)
        assert storage.javascript_records() == []
        storage.end_visit()
        assert len(storage.javascript_records()) == 1
        assert len(storage.http_request_rows()) == 1

    def test_end_visit_flushes_in_one_transaction(self, storage):
        storage.begin_visit(1, "https://a.test/")
        for index in range(5):
            storage.recorder.record_javascript("d", "s", f"sym{index}",
                                               "get", "v")
        storage.end_visit()
        records = storage.javascript_records()
        # Arrival order is preserved, so AUTOINCREMENT ids follow it.
        assert [row["symbol"] for row in records] == [
            f"sym{index}" for index in range(5)]
        assert [row["id"] for row in records] == list(range(1, 6))

    def test_abort_visit_counts_buffered_rows(self, storage):
        storage.begin_visit(1, "https://hung.test/")
        storage.recorder.record_javascript("d", "s", "sym", "get", "v")
        storage.recorder.record_javascript("d", "s", "sym2", "get", "v")
        storage.recorder.record_http_response(url="https://hung.test/",
                                              status=200,
                                              content_type="text/html")
        discarded = storage.recorder.abort_visit(1)
        assert discarded["javascript"] == 2
        assert discarded["http_responses"] == 1
        assert storage.javascript_records() == []
        assert storage.query("SELECT * FROM site_visits") == []

    def test_envelope_round_trips_and_empties_the_store(self):
        """A slot's recorder hands over everything it recorded, once:
        the crawl database lands it under its own visit ids, and the
        recorder keeps nothing (its memory does not grow with the
        crawl)."""
        slot = VisitRecorder()
        slot.begin_visit(1, "https://crashed.test/")
        slot.record_javascript("d", "s", "partial", "get", "v")
        slot.record_crash(1, "https://crashed.test/", "crash")
        slot.end_visit(1)
        slot.begin_visit(1, "https://crashed.test/")
        slot.record_javascript("d", "s", "sym", "get", "v")
        slot.record_content("body", "https://crashed.test/a.js",
                            "text/javascript")
        slot.record_content("body", "https://crashed.test/b.js",
                            "text/javascript")
        slot.end_visit(1)
        slot.record_failed_visit(1, "https://crashed.test/", 2, "x")
        envelope = slot.take_envelope()
        assert [v["visit_id"] for v in envelope["visits"]] == [1, 2]
        assert [row[2] for row in envelope["content"]] == [
            "https://crashed.test/a.js"]  # first seen wins
        empty = slot.take_envelope()
        assert empty["visits"] == empty["content"] == []
        assert not any(empty["ledger"].values())

        crawl = StorageController(":memory:")
        crawl.record_envelope(**envelope)
        crawl.record_envelope(**envelope)
        visits = crawl.query("SELECT visit_id FROM site_visits")
        assert [row["visit_id"] for row in visits] == [1, 2, 3, 4]
        crashes = crawl.query("SELECT visit_id FROM crash_history")
        assert [row["visit_id"] for row in crashes] == [1, 3]
        assert len(crawl.javascript_records(visit_id=4)) == 1
        assert len(crawl.query("SELECT * FROM content")) == 1  # deduped
        assert len(crawl.failed_visit_rows()) == 2
        crawl.close()

    def test_envelope_refused_mid_visit(self):
        slot = VisitRecorder()
        slot.begin_visit(1, "https://open.test/")
        with pytest.raises(VisitStateError):
            slot.take_envelope()

    def test_close_keeps_ended_visits_only(self, tmp_path):
        """Ended visits are in the database; a visit never ended never
        lands."""
        path = str(tmp_path / "recorded.sqlite")
        controller = StorageController(path)
        controller.begin_visit(1, "https://a.test/")
        controller.recorder.record_javascript("d", "s", "sym", "get", "v")
        controller.end_visit()
        controller.begin_visit(1, "https://b.test/")
        controller.recorder.record_javascript("d", "s", "sym2", "get",
                                              "v")
        controller.close()                     # never end_visit'ed
        reopened = StorageController(path)
        try:
            assert [row["symbol"] for row
                    in reopened.javascript_records()] == ["sym"]
        finally:
            reopened.close()


class TestEnvelopeRollback:
    def test_failed_envelope_leaves_no_rows(self, tmp_path):
        """An envelope whose write raises part-way lands nothing: the
        next commit (telemetry, close) must not commit its partial rows,
        and the next envelope gets the id it would have had."""
        path = str(tmp_path / "crawl.sqlite")
        crawl = StorageController(path)
        slot = VisitRecorder()

        def visit(url):
            slot.begin_visit(0, url)
            slot.record_javascript("d", "s", url, "get", "v")
            slot.end_visit(0)

        visit("https://good.test/")
        crawl.record_envelope(**slot.take_envelope())
        visit("https://partial.test/")
        visit("https://broken.test/")
        slot.record_failed_visit(0, "https://broken.test/", 1, "x")
        broken = slot.take_envelope()
        broken["visits"][1]["tables"]["no_such_table"] = [(2, 0)]
        with pytest.raises(ValueError):
            crawl.record_envelope(**broken)
        visit("https://next.test/")
        crawl.record_envelope(**slot.take_envelope())
        crawl.persist_telemetry({"spans": [], "metrics": []})
        crawl.close()

        reopened = StorageController(path)
        try:
            assert verify(reopened.connection)["ok"]
            visits = reopened.query(
                "SELECT visit_id, site_url FROM site_visits "
                "ORDER BY visit_id")
            assert [tuple(row) for row in visits] == [
                (1, "https://good.test/"), (2, "https://next.test/")]
            assert [row["symbol"] for row
                    in reopened.javascript_records()] == [
                "https://good.test/", "https://next.test/"]
            assert reopened.failed_visit_rows() == []
        finally:
            reopened.close()
