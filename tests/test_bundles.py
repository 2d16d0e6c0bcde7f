"""Execution bundles: record, replay, fidelity, and integrity.

The contract under test is the paper's reproducibility requirement:
a crawl archived into a bundle and replayed — at any worker count,
with no live web — must reproduce the detector verdicts and derived
tables byte for byte, and any divergence (mutated script, missing
resource, verdict flip, torn recording) must be *named*, not papered
over.
"""

import json
import os
import sqlite3
import zlib

import pytest

from repro.bundles import (
    Bundle,
    BundleError,
    BundleWriter,
    IncompleteBundleError,
    ReplayWeb,
    diff_bundles,
    is_bundle_dir,
    render_fidelity_report,
)
from repro.bundles.codec import (
    canonical_json,
    decode_hops,
    decode_request,
    encode_hops,
    encode_request,
)
from repro.cli import main
from repro.core.scan import ScanPipeline
from repro.corpus import ScriptCorpus, script_hash
from repro.web import build_world

SITES = 6
SEED = 5


def _payload(dataset) -> dict:
    """The verdict tables a scan feeds into the paper's figures."""
    return {
        "sites": dataset.visited_sites,
        "table5": dataset.table5(),
        "table11": dataset.table11(),
        "fig4": dataset.fig4(),
        "table7": dataset.table7(10),
        "table12": dataset.table12(),
    }


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One live scan archived into a bundle, plus its table payload."""
    root = tmp_path_factory.mktemp("bundles")
    path = str(root / "rec")
    web = build_world(site_count=SITES, seed=SEED)
    recorder = BundleWriter(
        path, kind="scan", params={"sites": SITES, "seed": SEED},
        sites=[config.domain for config in web.configs])
    pipeline = ScanPipeline(web, recorder=recorder)
    dataset = pipeline.run(visit_subpages=True)
    recorder.finalize(complete=True)
    return path, _payload(dataset)


def _replay(bundle_path: str, workers: int = 1, record: str = None):
    bundle = Bundle(bundle_path)
    recorder = None
    if record is not None:
        recorder = BundleWriter(
            record, kind="scan", params={"replay_of": bundle_path},
            sites=list(bundle.sites()))
    web = ReplayWeb(bundle)
    pipeline = ScanPipeline(web, recorder=recorder)
    dataset = pipeline.run(visit_subpages=True, workers=workers)
    if recorder is not None:
        recorder.finalize(complete=True)
    bundle.close()
    return dataset


class TestReplayDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_replay_reproduces_tables_at_any_worker_count(
            self, recorded, workers):
        path, live_payload = recorded
        dataset = _replay(path, workers=workers)
        assert canonical_json(_payload(dataset)) \
            == canonical_json(live_payload)

    def test_replay_never_consults_live_servers(self, recorded,
                                                monkeypatch):
        from repro.net import network as network_mod

        def explode(self, request, client, network):
            raise AssertionError(
                f"live server consulted during replay: {request.url}")

        monkeypatch.setattr(network_mod.Server, "handle", explode)
        monkeypatch.setattr(network_mod.FunctionServer, "handle",
                            explode)
        path, live_payload = recorded
        dataset = _replay(path)
        assert _payload(dataset) == live_payload

    def test_replay_miss_returns_404_and_counts(self, recorded):
        from repro.bundles import ReplayNetwork
        from repro.net.http import HttpRequest
        from repro.net.network import ClientIdentity
        from repro.net.url import URL

        path, _ = recorded
        bundle = Bundle(path)
        network = ReplayNetwork(bundle)
        site = bundle.sites()[0]
        network.begin_visit(site, f"https://www.{site}/")
        response, hops = network.fetch(
            HttpRequest(url=URL.parse("https://nowhere.test/x.js")),
            ClientIdentity(client_id="c"))
        assert response.status == 404
        assert network.replay_misses == 1
        assert len(hops) == 1
        bundle.close()


class TestOfflineReanalysis:
    """``--offline``: detector re-run over archived evidence, no browser."""

    def test_reanalysis_reproduces_tables(self, recorded):
        from repro.bundles import reanalyze_bundle

        path, live_payload = recorded
        bundle = Bundle(path)
        dataset = reanalyze_bundle(bundle)
        assert canonical_json(_payload(dataset)) \
            == canonical_json(live_payload)
        bundle.close()

    def test_reanalysis_rescans_sources_on_cache_miss(self, recorded,
                                                      tmp_path):
        """With the archived analysis cache wiped (what a new pattern
        set amounts to), verdicts still rebuild from stored sources."""
        import shutil

        from repro.bundles import reanalyze_bundle

        path, live_payload = recorded
        copy = str(tmp_path / "cold")
        shutil.copytree(path, copy)
        conn = sqlite3.connect(os.path.join(copy, "store.corpus"))
        conn.execute("DELETE FROM analysis_cache")
        conn.commit()
        conn.close()
        bundle = Bundle(copy)
        dataset = reanalyze_bundle(bundle)
        assert canonical_json(_payload(dataset)) \
            == canonical_json(live_payload)
        bundle.close()

    def test_reanalysis_refuses_bundle_without_evidence(self, tmp_path):
        from repro.bundles import reanalyze_bundle

        path = str(tmp_path / "crawlish")
        writer = BundleWriter(path, kind="crawl", sites=["x.test"])
        writer.write_site("x.test", [{
            "url": "https://x.test/", "exchanges": [], "blobs": {},
            "trace": [], "success": True}])
        writer.finalize(complete=True)
        bundle = Bundle(path)
        with pytest.raises(BundleError, match="offline"):
            reanalyze_bundle(bundle)
        bundle.close()

    def test_cli_offline_matches_live_scan(self, recorded, capsys):
        path, live_payload = recorded
        assert main(["scan", "--replay", path, "--offline"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["table5"] == live_payload["table5"]
        assert output["sites"] == live_payload["sites"]

    def test_cli_offline_needs_replay(self, capsys):
        assert main(["scan", "--offline"]) == 2
        assert "--replay" in capsys.readouterr().err

    def test_cli_offline_rejects_record(self, recorded, tmp_path,
                                        capsys):
        path, _ = recorded
        assert main(["scan", "--replay", path, "--offline",
                     "--record", str(tmp_path / "no")]) == 2
        assert "--record" in capsys.readouterr().err


class TestFidelity:
    def test_faithful_replay_scores_zero_diffs(self, recorded,
                                               tmp_path):
        path, _ = recorded
        rerec = str(tmp_path / "rerec")
        _replay(path, record=rerec)
        original, replay = Bundle(path), Bundle(rerec)
        report = diff_bundles(original, replay)
        assert report["zero_diffs"] is True
        assert report["mean_fidelity"] == 1.0
        assert report["missing_sites"] == []
        text = render_fidelity_report(report)
        assert "ZERO DIFFS" in text
        original.close()
        replay.close()

    def test_mutated_script_named_by_hash(self, recorded, tmp_path):
        path, _ = recorded
        rerec = str(tmp_path / "rerec")
        _replay(path, record=rerec)
        tampered_url, old_hash, new_hash = _mutate_one_script(rerec)
        original, replay = Bundle(path), Bundle(rerec)
        report = diff_bundles(original, replay)
        assert report["zero_diffs"] is False
        mutated = [item for site in report["sites"]
                   for item in site["resources"]["mutated"]]
        assert any(item["url"] == tampered_url
                   and item["original_hash"] == old_hash
                   and item["replay_hash"] == new_hash
                   for item in mutated)
        original.close()
        replay.close()

    def test_missing_resource_flagged(self, recorded, tmp_path):
        path, _ = recorded
        rerec = str(tmp_path / "rerec")
        _replay(path, record=rerec)
        dropped_url = _drop_one_exchange(rerec)
        original, replay = Bundle(path), Bundle(rerec)
        report = diff_bundles(original, replay)
        assert report["zero_diffs"] is False
        missing = [item for site in report["sites"]
                   for item in site["resources"]["missing"]]
        assert any(item["url"] == dropped_url for item in missing)
        original.close()
        replay.close()

    def test_verdict_flip_lists_changed_fields(self, recorded,
                                               tmp_path):
        path, _ = recorded
        rerec = str(tmp_path / "rerec")
        _replay(path, record=rerec)
        site = _flip_one_verdict(rerec)
        original, replay = Bundle(path), Bundle(rerec)
        report = diff_bundles(original, replay)
        flipped = next(diff for diff in report["sites"]
                       if diff["site"] == site)
        assert flipped["verdict"]["equal"] is False
        assert "combined.static_identified" \
            in flipped["verdict"]["changed"]
        original.close()
        replay.close()

    def test_cli_exit_codes(self, recorded, tmp_path, capsys):
        path, _ = recorded
        rerec = str(tmp_path / "rerec")
        _replay(path, record=rerec)
        assert main(["fidelity", path, rerec]) == 0
        _mutate_one_script(rerec)
        out = str(tmp_path / "fidelity.json")
        assert main(["fidelity", path, rerec, "--output", out]) == 1
        report = json.loads(open(out).read())
        assert report["zero_diffs"] is False
        capsys.readouterr()


class TestIncompleteBundle:
    def test_replay_refuses_torn_recording(self, tmp_path):
        path = str(tmp_path / "torn")
        writer = BundleWriter(path, kind="scan",
                              sites=["alpha.test", "beta.test"])
        writer.write_site("alpha.test", [], verdict=None, evidence=None)
        writer.finalize(complete=False)
        with pytest.raises(IncompleteBundleError,
                           match="beta.test"):
            Bundle(path)
        # Forensics can still open it explicitly.
        bundle = Bundle(path, allow_incomplete=True)
        assert bundle.recorded_sites() == ["alpha.test"]
        bundle.close()

    def test_writer_refuses_existing_bundle(self, tmp_path):
        path = str(tmp_path / "dup")
        BundleWriter(path, kind="scan", sites=[]).finalize()
        with pytest.raises(BundleError):
            BundleWriter(path, kind="scan", sites=[])

    def test_is_bundle_dir(self, tmp_path):
        path = str(tmp_path / "b")
        BundleWriter(path, kind="scan", sites=[]).finalize()
        assert is_bundle_dir(path)
        assert not is_bundle_dir(str(tmp_path))


class TestCorpusVerify:
    def test_clean_store_verifies(self, tmp_path):
        path = str(tmp_path / "c.corpus")
        corpus = ScriptCorpus(path)
        corpus.put("var a = 1;")
        corpus.put("var b = 2;")
        report = corpus.verify()
        corpus.close()
        assert report["ok"] is True
        assert report["bodies_checked"] == 2
        assert report["corrupt"] == []

    def test_corrupt_blob_detected(self, tmp_path):
        path = str(tmp_path / "c.corpus")
        corpus = ScriptCorpus(path)
        digest = corpus.put("var a = 1;")
        corpus.close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE scripts SET body = ? WHERE hash = ?",
            (zlib.compress(b"var tampered = true;"), digest))
        conn.commit()
        conn.close()
        corpus = ScriptCorpus(path)
        report = corpus.verify()
        corpus.close()
        assert report["ok"] is False
        assert [entry["hash"] for entry in report["corrupt"]] == [digest]

    def test_cli_verify_exit_codes(self, recorded, tmp_path, capsys):
        path, _ = recorded
        assert main(["corpus", "verify", path]) == 0
        store = str(tmp_path / "bad.corpus")
        corpus = ScriptCorpus(store)
        digest = corpus.put("var x = 9;")
        corpus.close()
        conn = sqlite3.connect(store)
        conn.execute("UPDATE scripts SET body = x'00' WHERE hash = ?",
                     (digest,))
        conn.commit()
        conn.close()
        assert main(["corpus", "verify", store]) == 1
        assert main(["corpus", "verify",
                     str(tmp_path / "nothing")]) == 2
        capsys.readouterr()


class TestZlevel:
    def test_env_overrides_compression_level(self, tmp_path,
                                             monkeypatch):
        source = "var filler = '" + "a" * 4096 + "';"
        monkeypatch.setenv("REPRO_CORPUS_ZLEVEL", "0")
        fat = ScriptCorpus(str(tmp_path / "z0.corpus"))
        digest = fat.put(source)
        assert fat.source(digest) == source
        assert fat.zlevel == 0
        fat_bytes = fat.total_stored_bytes()
        fat.close()
        monkeypatch.setenv("REPRO_CORPUS_ZLEVEL", "9")
        thin = ScriptCorpus(str(tmp_path / "z9.corpus"))
        thin.put(source)
        assert thin.source(digest) == source
        thin_bytes = thin.total_stored_bytes()
        thin.close()
        assert thin_bytes < fat_bytes

    def test_invalid_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_ZLEVEL", "11")
        with pytest.raises(ValueError, match="REPRO_CORPUS_ZLEVEL"):
            ScriptCorpus(str(tmp_path / "bad.corpus"))
        monkeypatch.setenv("REPRO_CORPUS_ZLEVEL", "fast")
        with pytest.raises(ValueError, match="REPRO_CORPUS_ZLEVEL"):
            ScriptCorpus(str(tmp_path / "bad2.corpus"))


class TestCodec:
    def test_request_round_trip(self):
        from repro.net.http import HttpRequest
        from repro.net.url import URL

        request = HttpRequest(
            url=URL.parse("https://a.test/p?q=1"),
            resource_type="script", method="POST",
            headers={"X-Test": "1"}, body="payload",
            top_frame_url=URL.parse("https://a.test/"),
            cookie_header="sid=42")
        decoded = decode_request(encode_request(request))
        assert str(decoded.url) == str(request.url)
        assert decoded.method == "POST"
        assert decoded.headers == {"X-Test": "1"}
        assert decoded.cookie_header == "sid=42"

    def test_hops_round_trip_through_store(self):
        from repro.net.http import HttpRequest, HttpResponse
        from repro.net.network import ExchangeRecord
        from repro.net.url import URL

        blobs = {}

        def put(text):
            digest = script_hash(text)
            blobs[digest] = text
            return digest

        request = HttpRequest(url=URL.parse("https://a.test/"))
        redirect = HttpResponse.redirect("https://b.test/")
        final = HttpResponse(body="<html>hello</html>")
        hops = [ExchangeRecord(request, redirect),
                ExchangeRecord(
                    HttpRequest(url=URL.parse("https://b.test/")),
                    final)]
        data = encode_hops(hops, put)
        response, decoded = decode_hops(data, blobs.__getitem__,
                                        request)
        assert response.body == "<html>hello</html>"
        assert len(decoded) == 2
        assert decoded[0].request is request
        assert decoded[0].response.is_redirect


class TestCrawlRecordReplay:
    def test_lab_crawl_round_trip(self, tmp_path):
        from repro.obs.runner import run_telemetry_crawl

        rec = str(tmp_path / "crawl-rec")
        rerec = str(tmp_path / "crawl-rerec")
        live = run_telemetry_crawl(
            site_count=5, seed=3, crash_probability=0.0, browsers=2,
            workers=2, record_dir=rec)
        live_rows = {
            table: live.storage.query(
                f"SELECT COUNT(*) AS n FROM {table}")[0]["n"]
            for table in ("site_visits", "http_requests")}
        live.close()
        replay = run_telemetry_crawl(
            site_count=5, seed=3, crash_probability=0.0, browsers=2,
            workers=2, replay_dir=rec, record_dir=rerec)
        replay_rows = {
            table: replay.storage.query(
                f"SELECT COUNT(*) AS n FROM {table}")[0]["n"]
            for table in ("site_visits", "http_requests")}
        assert replay.manager.network.replay_misses == 0
        replay.close()
        assert replay_rows == live_rows
        original, rerecorded = Bundle(rec), Bundle(rerec)
        report = diff_bundles(original, rerecorded)
        assert report["zero_diffs"] is True
        original.close()
        rerecorded.close()

    def test_same_site_twice_in_a_row_replays(self, tmp_path):
        from repro.obs.runner import run_telemetry_crawl

        # Each job attempt replays its site from the first archived
        # visit, so a site listed twice in a row replays twice.
        rec = str(tmp_path / "twice-rec")
        url = "https://lab.test/site-00000"
        run_telemetry_crawl(urls=[url, url], crash_probability=0.0,
                            browsers=1, record_dir=rec).close()
        replay = run_telemetry_crawl(urls=[url, url], crash_probability=0.0,
                                     browsers=1, replay_dir=rec)
        counts = {
            table: replay.storage.query(
                f"SELECT COUNT(*) AS n FROM {table}")[0]["n"]
            for table in ("site_visits", "failed_visits")}
        misses = replay.manager.network.replay_misses
        replay.close()
        assert counts == {"site_visits": 2, "failed_visits": 0}
        assert misses == 0

    def test_crash_interrupted_crawl_refuses_replay(self, tmp_path):
        from repro.obs.runner import run_telemetry_crawl

        rec = str(tmp_path / "crash-rec")
        # A high crash probability with a failure limit of attempts
        # leaves some sites unarchived; the bundle must stay marked
        # as a recording.
        result = run_telemetry_crawl(
            site_count=6, seed=3, crash_probability=0.97, browsers=2,
            workers=2, record_dir=rec, max_attempts=1)
        result.close()
        bundle = Bundle(rec, allow_incomplete=True)
        incomplete = bundle.status == "recording" \
            or len(bundle.recorded_sites()) < 6
        bundle.close()
        if not incomplete:  # pragma: no cover - seed-dependent guard
            pytest.skip("every site survived the crash storm")
        with pytest.raises(BundleError):
            Bundle(rec)


# ---------------------------------------------------------------------------
# Tamper helpers (operate directly on a bundle's sqlite + store)
# ---------------------------------------------------------------------------
def _load_visit_row(bundle_dir):
    conn = sqlite3.connect(os.path.join(bundle_dir, "bundle.sqlite"))
    conn.row_factory = sqlite3.Row
    store = ScriptCorpus(os.path.join(bundle_dir, "store.corpus"))
    rows = conn.execute(
        "SELECT site, visit_index, exchanges_ref FROM visits "
        "ORDER BY site, visit_index").fetchall()
    return conn, store, rows


def _mutate_one_script(bundle_dir):
    """Swap one archived script body for a tampered one."""
    conn, store, rows = _load_visit_row(bundle_dir)
    for row in rows:
        chains = json.loads(store.source(row["exchanges_ref"]))
        for chain in chains:
            response = chain["hops"][-1]["response"]
            script = response.get("script")
            if not script:
                continue
            old_hash = script["source_ref"]
            tampered = store.source(old_hash) + "\n;var tampered=1;"
            new_hash = script_hash(tampered)
            script["source_ref"] = new_hash
            payload = canonical_json(chains)
            new_ref = script_hash(payload)
            store.put_many({new_hash: tampered, new_ref: payload})
            conn.execute(
                "UPDATE visits SET exchanges_ref = ? "
                "WHERE site = ? AND visit_index = ?",
                (new_ref, row["site"], row["visit_index"]))
            conn.commit()
            url = chain["hops"][0]["request"]["url"]
            conn.close()
            store.close()
            return url, old_hash, new_hash
    raise AssertionError("no script exchange found to tamper with")


def _drop_one_exchange(bundle_dir):
    """Delete one archived fetch from a visit."""
    conn, store, rows = _load_visit_row(bundle_dir)
    for row in rows:
        chains = json.loads(store.source(row["exchanges_ref"]))
        if len(chains) < 2:
            continue
        dropped = chains.pop()
        payload = canonical_json(chains)
        new_ref = script_hash(payload)
        store.put_many({new_ref: payload})
        conn.execute(
            "UPDATE visits SET exchanges_ref = ? "
            "WHERE site = ? AND visit_index = ?",
            (new_ref, row["site"], row["visit_index"]))
        conn.commit()
        conn.close()
        store.close()
        return dropped["hops"][0]["request"]["url"]
    raise AssertionError("no multi-exchange visit found")


def _flip_one_verdict(bundle_dir):
    """Invert one site's static verdict in the bundle."""
    conn = sqlite3.connect(os.path.join(bundle_dir, "bundle.sqlite"))
    conn.row_factory = sqlite3.Row
    row = conn.execute(
        "SELECT site, verdict_json FROM visits "
        "JOIN sites USING (site) LIMIT 1").fetchone()
    verdict = json.loads(row["verdict_json"])
    verdict["combined"]["static_identified"] = \
        not verdict["combined"]["static_identified"]
    conn.execute("UPDATE sites SET verdict_json = ? WHERE site = ?",
                 (json.dumps(verdict), row["site"]))
    conn.commit()
    conn.close()
    return row["site"]
