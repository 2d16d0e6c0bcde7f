"""Sidecar persistence for per-site scan evidence (resume support).

The scan pipeline's job queue remembers *which* sites are done, but the
classifications themselves used to live only in the in-memory
:class:`~repro.core.scan.pipeline.ScanDataset` — so a resumed scan
silently returned a dataset missing every site completed by earlier
runs. :class:`ScanResultStore` closes that gap: the scan broker saves
a site's raw :class:`~repro.core.scan.classify.VisitEvidence` list right
before the job is marked completed, and a resume reloads the evidence
and re-derives the classifications (classification is a pure function
of evidence, so nothing derived needs to be stored).

The store is a second SQLite file next to the queue (``<queue>.scan``),
kept out of both the queue and the crawl database for the same reason
the queue is kept out of the crawl database: bookkeeping must never
perturb crawl-data determinism. Sets are serialized as sorted lists so
the stored JSON is byte-stable under fixed seeds.

Format history: v1 sidecars stored raw script sources inline in the
evidence JSON; v2 stores sha256 content addresses into the
``<queue>.corpus`` script store. A v1 sidecar is *refused* on open
(rather than mis-read as hashes) with instructions to re-run without
``--resume``.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Dict, List

from repro.core.scan.classify import VisitEvidence

#: Sidecar format: 2 = script entries are corpus content addresses.
STORE_FORMAT = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS scan_results (
    domain TEXT PRIMARY KEY,
    evidence_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS scan_store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class ScanStoreFormatError(RuntimeError):
    """The sidecar on disk uses an incompatible (pre-corpus) format."""


def evidence_to_dict(evidence: VisitEvidence) -> Dict[str, object]:
    """One visit's evidence as JSON-ready plain data."""
    return {
        "page_url": evidence.page_url,
        "scripts": [[url, source] for url, source in evidence.scripts],
        "webdriver_accessors": sorted(evidence.webdriver_accessors),
        "residue_accessors": {
            script: sorted(props)
            for script, props in sorted(evidence.residue_accessors.items())},
        "honey_hits": {
            script: sorted(props)
            for script, props in sorted(evidence.honey_hits.items())},
    }


def evidence_from_dict(data: Dict[str, object]) -> VisitEvidence:
    return VisitEvidence(
        page_url=str(data["page_url"]),
        scripts=[(url, source) for url, source in data.get("scripts", [])],
        webdriver_accessors=set(data.get("webdriver_accessors", [])),
        residue_accessors={
            script: set(props) for script, props
            in dict(data.get("residue_accessors", {})).items()},
        honey_hits={
            script: set(props) for script, props
            in dict(data.get("honey_hits", {})).items()},
    )


def store_path_for(queue_path: str) -> str:
    """The sidecar path for a queue file (in-memory stays in-memory)."""
    if queue_path == ":memory:":
        return ":memory:"
    return queue_path + ".scan"


class ScanResultStore:
    """SQLite-backed map of domain -> persisted visit-evidence list."""

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        if path != ":memory:":
            # Same concurrency posture as the crawl database: WAL lets
            # read-only inspectors open the sidecar while a scan is
            # still appending evidence.
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA busy_timeout = 10000")
        with self._lock:
            self._check_format()
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR REPLACE INTO scan_store_meta (key, value) "
                "VALUES ('format', ?)", (str(STORE_FORMAT),))
            self._conn.commit()

    def _check_format(self) -> None:
        """Refuse sidecars written before the content-addressed corpus.

        v1 stored raw sources where v2 stores hashes; reading one as
        the other would silently classify on garbage, so the mismatch
        is a hard error.
        """
        tables = {row["name"] for row in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        if "scan_results" not in tables:
            return  # fresh file
        if "scan_store_meta" not in tables:
            raise ScanStoreFormatError(
                f"scan sidecar {self.path!r} uses the old raw-source "
                "format (pre-corpus, no format marker); its evidence "
                "cannot be resolved against a script corpus — re-run "
                "the scan without --resume to rebuild it")
        row = self._conn.execute(
            "SELECT value FROM scan_store_meta WHERE key = 'format'"
        ).fetchone()
        if row is None or int(row["value"]) != STORE_FORMAT:
            found = "missing" if row is None else row["value"]
            raise ScanStoreFormatError(
                f"scan sidecar {self.path!r} has format {found}, "
                f"expected {STORE_FORMAT}; re-run the scan without "
                "--resume to rebuild it")

    def save(self, domain: str, evidences: List[VisitEvidence]) -> None:
        payload = json.dumps([evidence_to_dict(e) for e in evidences],
                             sort_keys=True)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO scan_results "
                "(domain, evidence_json) VALUES (?, ?)", (domain, payload))
            self._conn.commit()

    def load_all(self) -> Dict[str, List[VisitEvidence]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT domain, evidence_json FROM scan_results "
                "ORDER BY domain").fetchall()
        return {row["domain"]: [evidence_from_dict(item) for item
                                in json.loads(row["evidence_json"])]
                for row in rows}

    def domains(self) -> List[str]:
        with self._lock:
            return [row["domain"] for row in self._conn.execute(
                "SELECT domain FROM scan_results ORDER BY domain")]

    def delete(self, domain: str) -> None:
        with self._lock:
            self._conn.execute(
                "DELETE FROM scan_results WHERE domain = ?", (domain,))
            self._conn.commit()

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM scan_results")
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()
