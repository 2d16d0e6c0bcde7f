"""Unit tests for the content-addressed script corpus."""

import sqlite3

import pytest

from repro.core.scan.classify import VisitEvidence
from repro.core.scan.static_analysis import (
    PATTERN_SET_VERSION,
    scan_script,
)
from repro.corpus import (
    MissingScriptError,
    ScriptCorpus,
    corpus_path_for,
    script_hash,
)

DETECTOR = "if (navigator.webdriver) { report('bot'); }"
BENIGN = "console.log('hello world');"


class TestContentAddressing:
    def test_put_returns_sha256(self):
        corpus = ScriptCorpus()
        digest = corpus.put(DETECTOR)
        assert digest == script_hash(DETECTOR)
        assert len(digest) == 64

    def test_round_trip(self):
        corpus = ScriptCorpus()
        digest = corpus.put(DETECTOR)
        assert corpus.source(digest) == DETECTOR

    def test_identical_bodies_stored_once(self):
        corpus = ScriptCorpus()
        first = corpus.put(DETECTOR)
        second = corpus.put(DETECTOR)
        assert first == second
        assert corpus.stats()["stored_bodies"] == 1

    def test_missing_hash_raises(self):
        corpus = ScriptCorpus()
        with pytest.raises(MissingScriptError):
            corpus.source("0" * 64)

    def test_missing_hash_scan_raises_not_empty_classify(self):
        corpus = ScriptCorpus()
        with pytest.raises(MissingScriptError):
            corpus.scan("0" * 64)

    def test_unicode_body_survives_compression(self):
        corpus = ScriptCorpus()
        body = "var s = 'é中文'; // комментарий"
        assert corpus.source(corpus.put(body)) == body

    def test_corpus_path_for(self):
        assert corpus_path_for(":memory:") == ":memory:"
        assert corpus_path_for("/tmp/x.queue") == "/tmp/x.queue.corpus"


class TestMemoizedScan:
    def test_scan_agrees_with_direct(self):
        corpus = ScriptCorpus()
        digest = corpus.put(DETECTOR)
        for preprocess in (True, False):
            cached = corpus.scan(digest, "u.js", preprocess=preprocess)
            direct = scan_script(DETECTOR, "u.js", preprocess=preprocess)
            assert cached.matched == direct.matched
            assert cached.script_url == "u.js"

    def test_second_scan_is_cache_hit(self):
        corpus = ScriptCorpus()
        digest = corpus.put(DETECTOR)
        corpus.scan(digest)
        assert corpus.cache_misses == 1
        corpus.scan(digest)
        corpus.scan(digest)
        assert corpus.cache_hits == 2
        assert corpus.cache_misses == 1

    def test_preprocess_variants_cached_separately(self):
        corpus = ScriptCorpus()
        hexed = r'navigator["\x77\x65\x62\x64\x72\x69\x76\x65\x72"]'
        digest = corpus.put(hexed)
        assert corpus.scan(digest, preprocess=True).strict_match
        assert not corpus.scan(digest, preprocess=False).strict_match
        # and again, from cache
        assert corpus.scan(digest, preprocess=True).strict_match
        assert not corpus.scan(digest, preprocess=False).strict_match

    def test_sqlite_cache_survives_reopen(self, tmp_path):
        path = str(tmp_path / "c.corpus")
        corpus = ScriptCorpus(path)
        digest = corpus.put(DETECTOR)
        expected = corpus.scan(digest).matched
        corpus.close()
        reopened = ScriptCorpus(path)
        assert reopened.scan(digest).matched == expected
        assert reopened.cache_hits == 1 and reopened.cache_misses == 0
        reopened.close()

    def test_cache_keyed_by_pattern_version(self, tmp_path):
        path = str(tmp_path / "c.corpus")
        corpus = ScriptCorpus(path)
        digest = corpus.put(DETECTOR)
        corpus.scan(digest)
        # Poison the cache under a *different* pattern version; the
        # current version's entry must be untouched and a stale
        # version must never be served.
        with corpus._lock:
            corpus._conn.execute(
                "INSERT OR REPLACE INTO analysis_cache "
                "(hash, pattern_version, preprocess, matched_json) "
                "VALUES (?, 'stale-version', 1, 'bogus-pattern')",
                (digest,))
            corpus._conn.commit()
        corpus._memo.clear()
        assert corpus.scan(digest).matched \
            == scan_script(DETECTOR).matched
        assert PATTERN_SET_VERSION != "stale-version"
        corpus.close()

    def test_cache_disabled_still_correct(self):
        corpus = ScriptCorpus(cache_enabled=False)
        digest = corpus.put(DETECTOR)
        assert corpus.scan(digest).matched == scan_script(DETECTOR).matched
        assert corpus.stats()["cache_entries"] == 0
        assert corpus.cache_hits == 0 and corpus.cache_misses == 0

    def test_env_var_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_CACHE", "off")
        corpus = ScriptCorpus()
        assert not corpus.cache_enabled
        monkeypatch.setenv("REPRO_CORPUS_CACHE", "on")
        assert ScriptCorpus().cache_enabled


def land(corpus, site, *visits):
    """One attempt at *site* visiting pages that load the given
    ``(script_url, source)`` lists, landed as the site's record."""
    batch = corpus.site_batch(site)
    evidences = []
    for index, scripts in enumerate(visits):
        evidence = VisitEvidence(page_url=f"https://{site}/{index}")
        evidence.scripts = [(url, batch.add(source))
                            for url, source in scripts]
        batch.flush_visit()
        evidences.append(evidence)
    batch.commit(evidences)
    return evidences


class TestBatchLifecycle:
    def test_attempt_writes_bodies_and_no_rows(self):
        corpus = ScriptCorpus()
        batch = corpus.site_batch("a.test")
        digest = batch.add(DETECTOR)
        batch.flush_visit()
        # The body is resolvable at once (the attempt classifies
        # against it); the occurrence rows wait for the landing.
        assert corpus.source(digest) == DETECTOR
        assert corpus.stats()["occurrences"] == 0
        assert corpus.sites() == []

    def test_visit_index_tracks_visits(self):
        corpus = ScriptCorpus()
        evidences = land(corpus, "a.test",
                         [("https://a.test/x.js", DETECTOR)],
                         [("https://a.test/x.js", DETECTOR),
                          ("https://a.test/y.js", BENIGN)])
        digest = evidences[0].scripts[0][1]
        assert corpus.occurrence_rows() == sorted([
            ("a.test", 0, "https://a.test/x.js", digest),
            ("a.test", 1, "https://a.test/x.js", digest),
            ("a.test", 1, "https://a.test/y.js", script_hash(BENIGN))])
        assert corpus.sites() == ["a.test"]

    def test_duplicate_evidence_entries_land_once(self):
        corpus = ScriptCorpus()
        land(corpus, "a.test", [("https://a.test/x.js", DETECTOR),
                                ("https://a.test/x.js", DETECTOR)])
        assert corpus.stats()["occurrences"] == 1
        assert corpus.verify()["ok"]

    def test_refcounts_match_occurrences(self):
        corpus = ScriptCorpus()
        for site in ("a.test", "b.test", "c.test"):
            land(corpus, site, [(f"https://{site}/x.js", DETECTOR),
                                (f"https://{site}/y.js", BENIGN)])
        with corpus._lock:
            rows = corpus._conn.execute(
                "SELECT refcount FROM scripts ORDER BY hash").fetchall()
        assert sorted(r["refcount"] for r in rows) == [3, 3]
        assert corpus.stats()["dedup_ratio"] == 3.0

    def test_dropped_attempt_retracts_refcounts(self):
        corpus = ScriptCorpus()
        batch = corpus.site_batch("a.test")
        batch.add(DETECTOR)
        batch.flush_visit()
        stats = corpus.stats()
        assert stats["occurrences"] == 0
        assert stats["unique_scripts"] == 0
        assert corpus.vacuum() == 1  # orphaned body reclaimed

    def test_landing_replaces_previous_record(self):
        corpus = ScriptCorpus()
        land(corpus, "a.test", [("https://a.test/x.js", DETECTOR)])
        land(corpus, "a.test", [("https://a.test/y.js", BENIGN)])
        rows = corpus.occurrence_rows()
        assert len(rows) == 1 and rows[0][2] == "https://a.test/y.js"
        assert corpus.stats()["unique_scripts"] == 1
        assert corpus.verify()["ok"]

    def test_commit_stores_shipped_bodies_and_analysis(self):
        worker = ScriptCorpus()
        evidences = land(worker, "a.test",
                         [("https://a.test/x.js", DETECTOR)])
        digest = evidences[0].scripts[0][1]
        worker.scan(digest)
        coordinator = ScriptCorpus()
        coordinator.site_batch("a.test").commit(
            evidences, {digest: worker.source(digest)},
            worker.export_analysis_cache())
        assert coordinator.occurrence_rows() == worker.occurrence_rows()
        assert coordinator.export_analysis_cache() \
            == worker.export_analysis_cache()
        assert coordinator.verify()["ok"]

    def test_failed_landing_rolls_back(self):
        corpus = ScriptCorpus()
        land(corpus, "a.test", [("https://a.test/x.js", DETECTOR)])
        before = corpus.occurrence_rows()
        evidence = VisitEvidence(page_url="https://a.test/")
        evidence.scripts = [("https://a.test/y.js", script_hash(BENIGN))]
        # Malformed analysis rows fail the transaction after the old
        # rows were retracted and the new ones inserted.
        with pytest.raises(sqlite3.Error):
            corpus.site_batch("a.test").commit(
                [evidence], {script_hash(BENIGN): BENIGN}, [("x",)])
        assert corpus.occurrence_rows() == before
        assert not corpus.has(script_hash(BENIGN))
        assert corpus.verify()["ok"]

    def test_retract_site(self):
        corpus = ScriptCorpus()
        land(corpus, "a.test", [("https://a.test/x.js", DETECTOR)])
        corpus.retract_site("a.test")
        assert corpus.stats()["occurrences"] == 0
        assert corpus.stats()["unique_scripts"] == 0
        assert corpus.sites() == []


class TestPersistence:
    def test_bodies_and_index_survive_reopen(self, tmp_path):
        path = str(tmp_path / "c.corpus")
        corpus = ScriptCorpus(path)
        digest = land(corpus, "a.test",
                      [("https://a.test/x.js", DETECTOR)])[0].scripts[0][1]
        corpus.close()
        reopened = ScriptCorpus(path)
        assert reopened.source(digest) == DETECTOR
        assert reopened.occurrence_rows() == [
            ("a.test", 0, "https://a.test/x.js", digest)]
        reopened.close()

    def test_clear_resets_everything(self, tmp_path):
        path = str(tmp_path / "c.corpus")
        corpus = ScriptCorpus(path)
        land(corpus, "a.test", [("https://a.test/x.js", DETECTOR)])
        corpus.scan(script_hash(DETECTOR))
        corpus.clear()
        stats = corpus.stats()
        assert stats["stored_bodies"] == 0
        assert stats["occurrences"] == 0
        assert stats["cache_entries"] == 0
        assert stats["cache_hits"] == 0
        corpus.close()

    def test_compression_actually_compresses(self):
        corpus = ScriptCorpus()
        # highly repetitive source, like real minified bundles
        body = "var a = 'webdriver';\n" * 200
        land(corpus, "a.test", [("https://a.test/big.js", body)])
        stats = corpus.stats()
        assert stats["corpus_bytes"] < stats["unique_raw_bytes"] / 5

    def test_stats_raw_bytes_counts_occurrences(self):
        corpus = ScriptCorpus()
        for site in ("a.test", "b.test"):
            land(corpus, site, [(f"https://{site}/x.js", DETECTOR)])
        stats = corpus.stats()
        assert stats["raw_bytes"] == 2 * len(DETECTOR.encode())
        assert stats["unique_raw_bytes"] == len(DETECTOR.encode())


class TestFormatMeta:
    def test_format_marker_written(self, tmp_path):
        path = str(tmp_path / "c.corpus")
        ScriptCorpus(path).close()
        conn = sqlite3.connect(path)
        row = conn.execute(
            "SELECT value FROM corpus_meta WHERE key = 'format'"
        ).fetchone()
        conn.close()
        assert row is not None

    def test_corpus_with_a_staged_table_still_opens(self, tmp_path):
        # Older layouts kept attempts' rows in a staged_occurrences
        # table until promotion; such a corpus opens, and the leftover
        # table is ignored.
        path = str(tmp_path / "c.corpus")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE staged_occurrences (token TEXT, "
                     "site TEXT, visit_index INTEGER, script_url TEXT, "
                     "hash TEXT)")
        conn.execute("INSERT INTO staged_occurrences VALUES "
                     "('a.test#1', 'a.test', 0, 'https://a.test/x.js', ?)",
                     (script_hash(DETECTOR),))
        conn.commit()
        conn.close()
        corpus = ScriptCorpus(path)
        land(corpus, "b.test", [("https://b.test/x.js", DETECTOR)])
        report = corpus.verify()
        assert report["ok"] and "orphaned_staged" not in report
        assert corpus.sites() == ["b.test"]
        corpus.close()
