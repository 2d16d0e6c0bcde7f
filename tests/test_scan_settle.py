"""The scan's stage-then-settle path: one job, one broker.

An attempt (:meth:`ScanPipeline.scan_job`) writes script bodies and
returns its evidence and verdicts; only the :class:`ScanBroker` writes
the site's corpus rows, sidecar evidence and dataset entry, and only
for a completion the queue accepts. These tests pin that a voided or
unwritable attempt leaves all three untouched, and that a process
dying between the corpus landing and the queue commit resumes to the
uninterrupted result.
"""

import json
import multiprocessing

import pytest

from repro.bundles import Bundle, BundleWriter
from repro.cli import _scan_output
from repro.core.scan import ScanBroker, ScanDataset, ScanPipeline
from repro.core.scan.results_store import (
    ScanResultStore,
    evidence_to_dict,
    store_path_for,
)
from repro.corpus import ScriptCorpus, corpus_path_for
from repro.obs.telemetry import Telemetry
from repro.sched import COMPLETED, LEASED, JobQueue
from repro.sched.settle import COMPLETE
from repro.web import build_world
from tests.test_stage_settle import ProcessDied


def sidecar_evidence(queue_path):
    """domain -> the evidence the ``.scan`` sidecar holds, as JSON data."""
    store = ScanResultStore(store_path_for(queue_path))
    try:
        return {domain: [evidence_to_dict(e) for e in evidences]
                for domain, evidences in store.load_all().items()}
    finally:
        store.close()


def scan_fingerprint(dataset, queue_path):
    """Everything a scan run produces, minus the corpus cache counters
    (which depend on where the analysis ran)."""
    output = _scan_output(dataset)
    output.pop("corpus")
    return {
        "output": json.dumps(output, indent=2),
        "sidecar": sidecar_evidence(queue_path),
        "front_only": list(dataset.front_only.items()),
        "combined": list(dataset.combined.items()),
        "occurrences": dataset.corpus.occurrence_rows(),
        "hashes": dataset.corpus.hashes(),
        "unique_scripts": sorted(dataset.unique_scripts),
    }


def assert_same_scan(got, expected):
    assert set(got) == set(expected)
    for key in expected:
        assert got[key] == expected[key], key


def die_on_save(save, calls=2):
    """*save*, but the process dies as the *calls*-th call returns: the
    broker has landed that site's occurrence rows and its evidence, and
    the queue has not yet marked it completed. Records the sites."""
    seen = []

    def record(self, domain, evidences):
        seen.append(domain)
        save(self, domain, evidences)
        if len(seen) == calls:
            raise ProcessDied()

    record.sites = seen
    return record


@pytest.fixture(scope="module")
def world():
    return build_world(site_count=6, seed=5)


class TestScanBroker:
    @pytest.fixture()
    def attempt(self, world, tmp_path):
        """One finished attempt at the first site, not yet settled."""
        domain = world.configs[0].domain
        queue = JobQueue()
        queue.enqueue([domain])
        corpus = ScriptCorpus()
        store = ScanResultStore(str(tmp_path / "broker.queue.scan"))
        dataset = ScanDataset(corpus=corpus)
        job = queue.claim("worker-0")
        resolution = ScanPipeline(world, client_id="broker-test").scan_job(
            domain, corpus, visit_subpages=False)
        assert resolution["kind"] == COMPLETE
        assert resolution["evidences"][0].scripts
        message = {**resolution, "job_id": job.job_id,
                   "site_url": domain, "owner": job.lease_owner,
                   "attempts": job.attempts}
        broker = ScanBroker(queue, None, corpus, store, dataset)
        yield broker, message
        store.close()
        corpus.close()
        queue.close()

    @staticmethod
    def assert_untouched(broker):
        assert broker.corpus.occurrence_rows() == []
        assert broker.store.domains() == []
        dataset = broker.dataset
        assert dataset.visited_sites == 0
        assert not (dataset.front_only or dataset.combined
                    or dataset.evidence or dataset.unique_scripts)

    def test_completion_lands_and_folds_the_attempts_verdicts(self,
                                                               attempt):
        broker, message = attempt
        corpus = broker.corpus
        lookups = corpus.cache_hits + corpus.cache_misses
        broker.handle_resolution(message)
        domain = message["site_url"]
        assert broker.queue.job_status(message["job_id"]) == COMPLETED
        assert corpus.occurrence_rows() == sorted(
            (domain, index, url, digest)
            for index, evidence in enumerate(message["evidences"])
            for url, digest in evidence.scripts)
        assert broker.store.load_all()[domain] == message["evidences"]
        # The job's own classifications, not a second classification.
        assert broker.dataset.combined[domain] is message["combined"]
        assert broker.dataset.front_only[domain] is message["front"]
        assert corpus.cache_hits + corpus.cache_misses == lookups

    def test_lost_resolution_touches_nothing(self, attempt):
        broker, message = attempt
        queue = broker.queue
        with queue._lock:
            queue._conn.execute(
                "UPDATE jobs SET lease_owner = 'intruder' "
                "WHERE job_id = ?", (message["job_id"],))
            queue._conn.commit()
        broker.handle_resolution(message)
        assert broker.tally.lease_lost == 1
        self.assert_untouched(broker)

    def test_stage_that_raises_touches_nothing(self, attempt,
                                               monkeypatch):
        broker, message = attempt

        def full_disk(self, domain, evidences):
            raise OSError("sidecar write failed")

        monkeypatch.setattr(ScanResultStore, "save", full_disk)
        with pytest.raises(OSError):
            broker.handle_resolution(message)
        assert broker.queue.counts()[LEASED] == 1
        self.assert_untouched(broker)


def crash_in_second_save(world, tmp_path, monkeypatch, **mode):
    """Kill the scan as its second site's ``save`` returns, and check
    what it left behind; returns ``(queue path, that site)``."""
    queue_path = str(tmp_path / "died.queue")
    dying = die_on_save(ScanResultStore.save)
    monkeypatch.setattr(ScanResultStore, "save", dying)
    pipeline = ScanPipeline(world, client_id="crash-window")
    with pytest.raises(ProcessDied):
        pipeline.run(visit_subpages=True, queue_path=queue_path, **mode)
    # A process pool's daemon workers die with their coordinator.
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
    pipeline.corpus.close()
    monkeypatch.undo()
    victim = dying.sites[-1]
    queue = JobQueue(queue_path)
    try:
        assert victim not in queue.sites(status=COMPLETED)
        assert victim in queue.sites(status=LEASED)
    finally:
        queue.close()
    # The window is real: the site's rows and evidence are on disk.
    corpus = ScriptCorpus(corpus_path_for(queue_path))
    try:
        assert victim in corpus.sites()
    finally:
        corpus.close()
    assert victim in sidecar_evidence(queue_path)
    return queue_path, victim


def resume_after_crash_window(world, tmp_path, monkeypatch, **mode):
    """Crash in the window, then resume; returns ``(resumed dataset,
    queue path)``."""
    queue_path, _ = crash_in_second_save(world, tmp_path, monkeypatch,
                                         **mode)
    resumed = ScanPipeline(world, client_id="crash-window").run(
        visit_subpages=True, queue_path=queue_path, resume=True, **mode)
    return resumed, queue_path


class TestCrashWindow:
    def test_crash_after_rows_landed_resumes_to_the_clean_result(
            self, world, tmp_path, monkeypatch):
        clean_queue = str(tmp_path / "clean.queue")
        clean = ScanPipeline(world, client_id="crash-window").run(
            visit_subpages=True, queue_path=clean_queue)
        resumed, queue_path = resume_after_crash_window(
            world, tmp_path, monkeypatch)
        try:
            assert resumed.corpus.occurrence_rows() \
                == clean.corpus.occurrence_rows()
            assert sidecar_evidence(queue_path) \
                == sidecar_evidence(clean_queue)
            assert resumed.table5() == clean.table5()
            assert resumed.corpus.verify()["ok"]
        finally:
            clean.corpus.close()
            resumed.corpus.close()

    def test_resume_retracts_leftovers_of_a_site_that_then_fails(
            self, world, tmp_path, monkeypatch):
        queue_path, victim = crash_in_second_save(world, tmp_path,
                                                  monkeypatch)
        site_browser = ScanPipeline._site_browser

        def broken_for_victim(self, domain):
            if domain == victim:
                raise RuntimeError("browser would not start")
            return site_browser(self, domain)

        monkeypatch.setattr(ScanPipeline, "_site_browser",
                            broken_for_victim)
        resumed = ScanPipeline(world, client_id="crash-window").run(
            visit_subpages=True, queue_path=queue_path, resume=True)
        try:
            assert victim not in resumed.combined
            assert victim not in resumed.corpus.sites()
            assert victim not in sidecar_evidence(queue_path)
            assert resumed.corpus.verify()["ok"]
            assert len(resumed.combined) == len(world.configs) - 1
        finally:
            resumed.corpus.close()


class TestRecordedScan:
    def test_bundle_holds_no_site_the_queue_never_completed(
            self, world, tmp_path, monkeypatch):
        """The sidecar write fails for one site of a recorded scan: the
        site stays leased, and the bundle, written by the same broker,
        must not hold it either."""
        victim = world.configs[2].domain
        save = ScanResultStore.save

        def failing(self, domain, evidences):
            if domain == victim:
                raise OSError("sidecar write failed")
            save(self, domain, evidences)

        monkeypatch.setattr(ScanResultStore, "save", failing)
        telemetry = Telemetry()
        bundle_dir = str(tmp_path / "bundle")
        recorder = BundleWriter(
            bundle_dir, kind="scan",
            sites=[config.domain for config in world.configs],
            telemetry=telemetry)
        queue_path = str(tmp_path / "recorded.queue")
        dataset = ScanPipeline(world, client_id="recorded",
                               telemetry=telemetry,
                               recorder=recorder).run(
            visit_subpages=False, queue_path=queue_path)
        recorder.finalize(complete=False)
        dataset.corpus.close()
        queue = JobQueue(queue_path)
        try:
            assert victim in queue.sites(status=LEASED)
            completed = queue.sites(status=COMPLETED)
        finally:
            queue.close()
        assert completed
        bundle = Bundle(bundle_dir, allow_incomplete=True)
        try:
            recorded = bundle.recorded_sites()
        finally:
            bundle.close()
        assert sorted(recorded) == sorted(completed)
        assert telemetry.metrics.counter_value(
            "bundle_sites_recorded") == len(recorded)
