"""Resume edge cases for the corpus-backed scan pipeline.

Covers the failure modes the content-addressed redesign introduced:
old-format sidecars that store raw sources instead of hashes, corpora
missing a referenced body, and multi-worker runs that must converge on
the same corpus as a single-worker run.
"""

import json
import os
import sqlite3

import pytest

from repro.core.scan import ScanPipeline
from repro.core.scan.classify import VisitEvidence, classify_site
from repro.core.scan.results_store import (
    ScanResultStore,
    ScanStoreFormatError,
    store_path_for,
)
from repro.corpus import MissingScriptError, ScriptCorpus, corpus_path_for
from repro.web import build_world
from tests.test_scan_settle import assert_same_scan, scan_fingerprint


def _write_v1_sidecar(path: str) -> None:
    """Hand-build a pre-corpus sidecar: raw sources, no format marker."""
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE scan_results ("
                 "domain TEXT PRIMARY KEY, evidence_json TEXT NOT NULL)")
    conn.execute(
        "INSERT INTO scan_results (domain, evidence_json) VALUES (?, ?)",
        ("legacy.test", json.dumps([{
            "page_url": "https://www.legacy.test/",
            "scripts": [["https://www.legacy.test/a.js",
                         "if (navigator.webdriver) {}"]],
            "webdriver_accessors": [], "residue_accessors": {},
            "honey_hits": {}}])))
    conn.commit()
    conn.close()


@pytest.fixture(scope="module")
def world():
    return build_world(site_count=12, seed=5)


class TestOldFormatSidecar:
    def test_store_refuses_v1_sidecar(self, tmp_path):
        path = str(tmp_path / "q.queue.scan")
        _write_v1_sidecar(path)
        with pytest.raises(ScanStoreFormatError,
                           match="raw-source format"):
            ScanResultStore(path)

    def test_store_refuses_unknown_format_number(self, tmp_path):
        path = str(tmp_path / "q.queue.scan")
        store = ScanResultStore(path)
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE scan_store_meta SET value = '99' "
                     "WHERE key = 'format'")
        conn.commit()
        conn.close()
        with pytest.raises(ScanStoreFormatError, match="format 99"):
            ScanResultStore(path)

    def test_pipeline_resume_refuses_v1_sidecar(self, world, tmp_path):
        queue = str(tmp_path / "legacy.queue")
        pipeline = ScanPipeline(world, client_id="resume-test")
        pipeline.run(site_limit=2, visit_subpages=False, queue_path=queue)
        pipeline.corpus.close()
        # Rewrite the sidecar in the old format, as a pre-corpus
        # checkout would have left it.
        sidecar = store_path_for(queue)
        os.remove(sidecar)
        _write_v1_sidecar(sidecar)
        with pytest.raises(ScanStoreFormatError):
            ScanPipeline(world, client_id="resume-test-2").run(
                site_limit=2, visit_subpages=False,
                queue_path=queue, resume=True)

    def test_fresh_store_is_stamped_v2(self, tmp_path):
        path = str(tmp_path / "q.queue.scan")
        ScanResultStore(path).close()
        # Reopening must succeed: marker present and current.
        ScanResultStore(path).close()


class TestMissingCorpusBody:
    def test_resume_with_gutted_corpus_raises(self, world, tmp_path):
        queue = str(tmp_path / "gutted.queue")
        pipeline = ScanPipeline(world, client_id="resume-test")
        dataset = pipeline.run(site_limit=3, visit_subpages=False,
                               queue_path=queue)
        assert dataset.unique_scripts  # the run did collect scripts
        pipeline.corpus.close()
        # Wipe the corpus but leave queue + sidecar intact: the resume
        # must refuse to classify against unresolvable hashes.
        gutted = ScriptCorpus(corpus_path_for(queue))
        gutted.clear()
        gutted.close()
        with pytest.raises(RuntimeError,
                           match="missing from the corpus"):
            ScanPipeline(world, client_id="resume-test-2").run(
                site_limit=3, visit_subpages=False,
                queue_path=queue, resume=True)

    def test_classify_with_unknown_hash_raises(self):
        corpus = ScriptCorpus()
        evidence = VisitEvidence(page_url="https://www.x.test/")
        evidence.scripts = [("https://www.x.test/a.js", "0" * 64)]
        with pytest.raises(MissingScriptError):
            classify_site("x.test", [evidence], corpus=corpus)

    def test_resume_missing_sidecar_evidence_raises(self, world,
                                                    tmp_path):
        queue = str(tmp_path / "partial.queue")
        pipeline = ScanPipeline(world, client_id="resume-test")
        pipeline.run(site_limit=3, visit_subpages=False, queue_path=queue)
        pipeline.corpus.close()
        store = ScanResultStore(store_path_for(queue))
        victim = store.domains()[0]
        store.delete(victim)
        store.close()
        with pytest.raises(RuntimeError, match="no persisted evidence"):
            ScanPipeline(world, client_id="resume-test-2").run(
                site_limit=3, visit_subpages=False,
                queue_path=queue, resume=True)


class TestMultiWorkerDeterminism:
    def test_worker_count_does_not_change_corpus_or_tables(
            self, world, tmp_path):
        datasets, queues = {}, {}
        for workers in (1, 3):
            queues[workers] = str(tmp_path / f"w{workers}.queue")
            pipeline = ScanPipeline(world, client_id="mw-test")
            datasets[workers] = pipeline.run(
                visit_subpages=True, workers=workers,
                queue_path=queues[workers])
        one, three = datasets[1], datasets[3]
        try:
            assert_same_scan(scan_fingerprint(three, queues[3]),
                             scan_fingerprint(one, queues[1]))
            # Refcount discipline holds under contention: every body's
            # refcount equals its live occurrence count in both runs.
            for dataset in (one, three):
                stats = dataset.corpus.stats()
                assert stats["unique_scripts"] == stats["stored_bodies"]
                assert dataset.corpus.verify()["ok"]
        finally:
            one.corpus.close()
            three.corpus.close()

    def test_resume_after_multi_worker_run_restores_everything(
            self, world, tmp_path):
        queue = str(tmp_path / "mw-resume.queue")
        pipeline = ScanPipeline(world, client_id="mw-test")
        first = pipeline.run(visit_subpages=True, workers=3,
                             queue_path=queue)
        table5 = first.table5()
        rows = first.corpus.occurrence_rows()
        first.corpus.close()
        resumed = ScanPipeline(world, client_id="mw-test-2").run(
            visit_subpages=True, workers=3, queue_path=queue,
            resume=True)
        try:
            assert resumed.table5() == table5
            assert resumed.corpus.occurrence_rows() == rows
        finally:
            resumed.corpus.close()
