"""The on-disk execution-bundle format.

A bundle is a directory archiving one crawl so it can be replayed and
re-analysed offline (Web Execution Bundles, Hantke et al.):

* ``MANIFEST.json`` — the bundle's identity card. Schema (format 1)::

      {
        "format": 1,                  # bump on incompatible changes
        "kind": "scan" | "crawl",     # which pipeline recorded it
        "status": "recording" | "complete",
        "params": { ... },            # recorder-supplied crawl params
        "sites": ["site", ...],       # planned sites, crawl order
        "pattern_set_version": "...", # static patterns at record time
        "counts": {"sites": N, "visits": N, "exchanges": N}
      }

  ``status`` stays ``"recording"`` until the recorder finalizes the
  bundle; replay refuses anything else, so a crash mid-crawl can never
  masquerade as a faithful archive.

* ``bundle.sqlite`` — the visit index: one row per site (its verdict
  and raw evidence as canonical JSON) and one row per visit (URL plus
  content addresses of its exchange log and JS-call trace).

* ``store.corpus`` — a :class:`repro.corpus.ScriptCorpus` reused as
  the content-addressed body store: every response body, script
  source, inline page script, exchange log, and trace blob lives here
  exactly once, keyed by sha256. Identical resources across visits
  and sites dedup to a single stored (zlib-compressed) body.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bundles.codec import canonical_json
from repro.corpus.store import ScriptCorpus, script_hash
from repro.obs.telemetry import coalesce

#: Bump when the on-disk layout changes incompatibly.
BUNDLE_FORMAT = 1

MANIFEST_NAME = "MANIFEST.json"
DB_NAME = "bundle.sqlite"
STORE_NAME = "store.corpus"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sites (
    site TEXT PRIMARY KEY,
    seq INTEGER NOT NULL,
    url TEXT NOT NULL,
    verdict_json TEXT,
    evidence_json TEXT
);
CREATE TABLE IF NOT EXISTS visits (
    site TEXT NOT NULL,
    visit_index INTEGER NOT NULL,
    url TEXT NOT NULL,
    success INTEGER NOT NULL DEFAULT 1,
    exchanges_ref TEXT NOT NULL,
    trace_ref TEXT NOT NULL,
    PRIMARY KEY (site, visit_index)
);
"""


class BundleError(RuntimeError):
    """The directory is not a usable execution bundle."""


class IncompleteBundleError(BundleError):
    """The bundle is a crash-interrupted (never finalized) recording."""


def is_bundle_dir(path: str) -> bool:
    return os.path.isfile(os.path.join(path, MANIFEST_NAME))


def _write_manifest(path: str, manifest: Dict[str, object]) -> None:
    """Atomic manifest write: a torn write must not look finalized."""
    target = os.path.join(path, MANIFEST_NAME)
    tmp = target + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True)
                     + "\n")
    os.replace(tmp, target)


@dataclass
class BundleVisit:
    """One archived visit, decoded."""

    site: str
    visit_index: int
    url: str
    success: bool
    #: Fetch-ordered exchange chains; each is ``{"hops": [...]}`` in
    #: the codec's encoding (decode lazily — replay needs dicts).
    exchanges: List[Dict[str, object]]
    #: Encoded JS-call trace (positional lists, codec.TRACE_FIELDS).
    trace: List[List[str]]


class BundleWriter:
    """Creates a bundle directory and streams site records into it.

    One ``write_site`` call commits everything that site produced —
    visit rows, blobs, verdict — in a single transaction, so a crash
    leaves whole sites, never torn visits, and the manifest's
    ``recording`` status marks the bundle unfinished until
    :meth:`finalize`. A recording crawl or scan calls it only from its
    broker, for a completion the queue accepts (see
    :mod:`repro.bundles.record`).
    """

    def __init__(self, path: str, kind: str = "crawl",
                 params: Optional[Dict[str, object]] = None,
                 sites: Optional[List[str]] = None,
                 telemetry=None) -> None:
        if is_bundle_dir(path):
            raise BundleError(
                f"refusing to record into {path!r}: it already holds a "
                "bundle (delete it or pick a fresh directory)")
        os.makedirs(path, exist_ok=True)
        self.path = path
        try:
            from repro.core.scan.static_analysis import PATTERN_SET_VERSION
            pattern_version: Optional[str] = PATTERN_SET_VERSION
        except Exception:  # pragma: no cover - defensive
            pattern_version = None
        self.manifest: Dict[str, object] = {
            "format": BUNDLE_FORMAT,
            "kind": kind,
            "status": "recording",
            "params": dict(params or {}),
            "sites": list(sites or []),
            "pattern_set_version": pattern_version,
            "counts": {},
        }
        _write_manifest(path, self.manifest)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(os.path.join(path, DB_NAME),
                                     check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self.store = ScriptCorpus(os.path.join(path, STORE_NAME))
        self._seq = {site: index for index, site
                     in enumerate(self.manifest["sites"])}
        self._exchanges = 0
        self._closed = False
        self.telemetry = coalesce(telemetry)
        #: Digests already in the store: their bodies are not
        #: compressed again just to be ignored by the insert.
        self._seen: set = set()

    # ------------------------------------------------------------------
    def write_site(self, site: str,
                   visits: List[Dict[str, object]],
                   verdict: Optional[Dict[str, object]] = None,
                   evidence: Optional[List[Dict[str, object]]] = None
                   ) -> None:
        """Commit one site's visits atomically.

        Each visit dict carries ``url``, ``exchanges`` (encoded
        chains), ``trace`` (encoded records), ``blobs`` (digest -> text
        of every body the codec externalized) and optionally
        ``success`` (default true).
        """
        bodies: Dict[str, str] = {}
        rows: List[Tuple[str, int, str, int, str, str]] = []
        exchange_count = 0
        for index, visit in enumerate(visits):
            bodies.update(visit.get("blobs") or {})
            exchanges_text = canonical_json(visit.get("exchanges") or [])
            exchanges_ref = script_hash(exchanges_text)
            bodies[exchanges_ref] = exchanges_text
            trace_text = canonical_json(visit.get("trace") or [])
            trace_ref = script_hash(trace_text)
            bodies[trace_ref] = trace_text
            exchange_count += len(visit.get("exchanges") or [])
            rows.append((site, index, str(visit.get("url", site)),
                         int(bool(visit.get("success", True))),
                         exchanges_ref, trace_ref))
        front_url = rows[0][2] if rows else site
        with self._lock:
            self.store.put_many({digest: text for digest, text
                                 in bodies.items()
                                 if digest not in self._seen})
            seq = self._seq.get(site)
            if seq is None:
                seq = len(self._seq)
                self._seq[site] = seq
                self.manifest["sites"].append(site)
            self._conn.execute("DELETE FROM visits WHERE site = ?",
                               (site,))
            self._conn.executemany(
                "INSERT OR REPLACE INTO visits "
                "(site, visit_index, url, success, exchanges_ref, "
                "trace_ref) VALUES (?, ?, ?, ?, ?, ?)", rows)
            self._conn.execute(
                "INSERT OR REPLACE INTO sites "
                "(site, seq, url, verdict_json, evidence_json) "
                "VALUES (?, ?, ?, ?, ?)",
                (site, seq, front_url,
                 None if verdict is None else canonical_json(verdict),
                 None if evidence is None
                 else canonical_json(evidence)))
            self._conn.commit()
            self._seen.update(bodies)
            self._exchanges += exchange_count
        metrics = self.telemetry.metrics
        metrics.counter("bundle_sites_recorded").inc()
        metrics.counter("bundle_visits_recorded").inc(len(rows))
        self.telemetry.journal.emit("bundle_site_recorded", site=site,
                                    visits=len(rows))

    # ------------------------------------------------------------------
    def import_analysis_cache(self, rows) -> int:
        """Archive memoized static-analysis verdicts with the bodies.

        Replay seeds its sidecar corpus from these rows, so unchanged
        pattern sets skip deobfuscation + matching entirely (the cache
        key includes the pattern-set version: a *new* pattern set
        simply misses and re-analyses).
        """
        return self.store.import_analysis_cache(rows)

    def finalize(self, complete: bool = True) -> None:
        """Write final counts; mark the bundle complete (or not)."""
        if self._closed:
            return
        with self._lock:
            counts = {
                "sites": int(self._conn.execute(
                    "SELECT COUNT(*) FROM sites").fetchone()[0]),
                "visits": int(self._conn.execute(
                    "SELECT COUNT(*) FROM visits").fetchone()[0]),
                "exchanges": self._exchanges,
            }
            self.manifest["counts"] = counts
            if complete:
                self.manifest["status"] = "complete"
            _write_manifest(self.path, self.manifest)
            self._conn.commit()
            self._conn.close()
            self.store.close()
            self._closed = True


class Bundle:
    """Read access to a finalized bundle (replay + fidelity side)."""

    #: Decompressed-blob memo size (exchange logs decode per visit;
    #: shared resources decode once).
    BLOB_CACHE = 512

    def __init__(self, path: str, allow_incomplete: bool = False) -> None:
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.isfile(manifest_path):
            raise BundleError(
                f"{path!r} is not an execution bundle: no "
                f"{MANIFEST_NAME} (record one with --record <dir>)")
        with open(manifest_path, encoding="utf-8") as handle:
            self.manifest: Dict[str, object] = json.load(handle)
        fmt = self.manifest.get("format")
        if fmt != BUNDLE_FORMAT:
            raise BundleError(
                f"bundle {path!r} has format {fmt!r}, this build reads "
                f"format {BUNDLE_FORMAT}; re-record it")
        self.path = path
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(os.path.join(path, DB_NAME),
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self.store = ScriptCorpus(os.path.join(path, STORE_NAME))
        self._blobs: "OrderedDict[str, str]" = OrderedDict()
        if not allow_incomplete:
            self._check_complete()

    @classmethod
    def open(cls, path: str, allow_incomplete: bool = False) -> "Bundle":
        return cls(path, allow_incomplete=allow_incomplete)

    # ------------------------------------------------------------------
    def _check_complete(self) -> None:
        expected = list(self.manifest.get("sites", []))
        with self._lock:
            recorded = {row["site"] for row in self._conn.execute(
                "SELECT site FROM sites")}
        missing = [site for site in expected if site not in recorded]
        if self.manifest.get("status") != "complete":
            preview = ", ".join(repr(site) for site in missing[:3])
            more = f" (+{len(missing) - 3} more)" if len(missing) > 3 \
                else ""
            detail = (f"the visit(s) for {preview}{more} were never "
                      "archived") if missing else \
                "every site was archived but the manifest was never " \
                "finalized"
            raise IncompleteBundleError(
                f"bundle {self.path!r} is an incomplete recording "
                f"(status {self.manifest.get('status')!r}, "
                f"{len(recorded)}/{len(expected)} sites): {detail}. "
                "The recording crawl crashed or is still running — "
                "re-record the bundle before replaying it")
        if missing:
            raise IncompleteBundleError(
                f"bundle {self.path!r} is marked complete but is "
                f"missing the recorded visits for "
                f"{missing[:3]!r}; the bundle directory was truncated "
                "or mixed from two recordings — re-record it")

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return str(self.manifest.get("kind", "crawl"))

    @property
    def status(self) -> str:
        return str(self.manifest.get("status", "recording"))

    @property
    def params(self) -> Dict[str, object]:
        return dict(self.manifest.get("params") or {})

    def sites(self) -> List[str]:
        """Planned sites in recording (crawl) order."""
        return list(self.manifest.get("sites", []))

    # ------------------------------------------------------------------
    def blob(self, digest: str) -> str:
        with self._lock:
            cached = self._blobs.get(digest)
            if cached is not None:
                self._blobs.move_to_end(digest)
                return cached
        text = self.store.source(digest)
        with self._lock:
            self._blobs[digest] = text
            if len(self._blobs) > self.BLOB_CACHE:
                self._blobs.popitem(last=False)
        return text

    def _visit_from_row(self, row) -> BundleVisit:
        return BundleVisit(
            site=row["site"], visit_index=int(row["visit_index"]),
            url=row["url"], success=bool(row["success"]),
            exchanges=json.loads(self.blob(row["exchanges_ref"])),
            trace=json.loads(self.blob(row["trace_ref"])))

    def visit(self, site: str, visit_index: int) -> BundleVisit:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM visits WHERE site = ? AND visit_index = ?",
                (site, visit_index)).fetchone()
        if row is None:
            raise BundleError(
                f"bundle {self.path!r} has no visit {visit_index} for "
                f"site {site!r} (the replayed crawl is visiting more "
                "pages than the recording archived)")
        return self._visit_from_row(row)

    def visits(self, site: str) -> List[BundleVisit]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM visits WHERE site = ? ORDER BY "
                "visit_index", (site,)).fetchall()
        return [self._visit_from_row(row) for row in rows]

    def visit_count(self, site: Optional[str] = None) -> int:
        sql = "SELECT COUNT(*) AS n FROM visits"
        args: Tuple = ()
        if site is not None:
            sql += " WHERE site = ?"
            args = (site,)
        with self._lock:
            return int(self._conn.execute(sql, args).fetchone()["n"])

    def recorded_sites(self) -> List[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT site FROM sites ORDER BY seq").fetchall()
        return [row["site"] for row in rows]

    def verdict(self, site: str) -> Optional[Dict[str, object]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT verdict_json FROM sites WHERE site = ?",
                (site,)).fetchone()
        if row is None or row["verdict_json"] is None:
            return None
        return json.loads(row["verdict_json"])

    def evidence(self, site: str) -> Optional[List[Dict[str, object]]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT evidence_json FROM sites WHERE site = ?",
                (site,)).fetchone()
        if row is None or row["evidence_json"] is None:
            return None
        return json.loads(row["evidence_json"])

    # ------------------------------------------------------------------
    def refs(self) -> Iterator[Tuple[str, str]]:
        """Every content address the index references, as
        ``(context, digest)`` pairs — the integrity-check walk."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT site, visit_index, exchanges_ref, trace_ref "
                "FROM visits ORDER BY site, visit_index").fetchall()
        for row in rows:
            context = f"{row['site']}#{row['visit_index']}"
            yield f"{context}:exchanges", row["exchanges_ref"]
            yield f"{context}:trace", row["trace_ref"]
            try:
                exchanges = json.loads(self.blob(row["exchanges_ref"]))
            except Exception:
                continue  # already reported as a broken top-level ref
            for chain in exchanges:
                for hop in chain.get("hops", []):
                    response = hop.get("response") or {}
                    url = str((hop.get("request") or {}).get("url", ""))
                    if response.get("body_ref"):
                        yield f"{context}:{url}:body", \
                            response["body_ref"]
                    script = response.get("script") or {}
                    if script.get("source_ref"):
                        yield f"{context}:{url}:script", \
                            script["source_ref"]
                    page = response.get("page") or {}
                    for item in page.get("items", []):
                        if item.get("source_ref"):
                            yield f"{context}:{url}:inline", \
                                item["source_ref"]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Coverage + storage numbers for ``repro stats``."""
        with self._lock:
            sites_recorded = int(self._conn.execute(
                "SELECT COUNT(*) AS n FROM sites").fetchone()["n"])
            visits = int(self._conn.execute(
                "SELECT COUNT(*) AS n FROM visits").fetchone()["n"])
        store = self.store.stats()
        counts = dict(self.manifest.get("counts") or {})
        expected = len(self.manifest.get("sites", []))
        return {
            "path": self.path,
            "kind": self.kind,
            "status": self.status,
            "format": self.manifest.get("format"),
            "pattern_set_version":
                self.manifest.get("pattern_set_version"),
            "sites_expected": expected,
            "sites_recorded": sites_recorded,
            "coverage": sites_recorded / expected if expected else 0.0,
            "visits": visits,
            "exchanges": counts.get("exchanges", 0),
            "stored_blobs": store["stored_bodies"],
            "stored_bytes": self.store.total_stored_bytes(),
            "raw_bytes": self.store.total_raw_bytes(),
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()
        self.store.close()
