"""SQLite-backed content-addressed script store + analysis memo.

Design (following Web Execution Bundles' content-addressed archival):

* ``scripts`` holds each unique body once, keyed by sha256 of the
  source, zlib-compressed, with a refcount equal to the number of live
  occurrence rows referencing it;
* ``occurrences`` is the per-site / per-visit / per-script-url index —
  the record of *where* each unique script was seen, and the thing the
  dedup ratio is measured against;
* ``analysis_cache`` memoizes the static-analysis verdict per
  ``(script_hash, pattern_set_version, preprocess)`` so each unique
  script is deobfuscated and pattern-matched exactly once per
  pattern-set revision (set ``REPRO_CORPUS_CACHE=off`` to bypass — the
  golden regression test proves the cache is semantics-free).

Writes follow the scheduler's "stage, then settle" discipline. A
worker's attempt writes only script *bodies*, as each visit ends
(:meth:`SiteBatch.flush_visit`): a body is content-addressed and never
retracted, so writing it early is always safe, and it lets the attempt
classify against the corpus. The site's occurrence rows wait for the
scan broker: when the queue accepts the completion, :meth:`SiteBatch.commit`
lands them, derived from the site's evidence, in one transaction that
replaces any earlier live rows and keeps refcounts equal to live
occurrence counts. A voided attempt lands nothing. Unreferenced bodies
are reclaimed by :meth:`ScriptCorpus.vacuum`, never implicitly.

A corpus written by an older layout may still hold a table of staged
attempt rows; it is ignored.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
import zlib
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # imported lazily at runtime; see scan()
    from repro.core.scan.classify import VisitEvidence
    from repro.core.scan.static_analysis import PatternHit

_SCHEMA = """
CREATE TABLE IF NOT EXISTS scripts (
    hash TEXT PRIMARY KEY,
    body BLOB NOT NULL,
    raw_bytes INTEGER NOT NULL,
    stored_bytes INTEGER NOT NULL,
    refcount INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS occurrences (
    site TEXT NOT NULL,
    visit_index INTEGER NOT NULL,
    script_url TEXT NOT NULL,
    hash TEXT NOT NULL,
    PRIMARY KEY (site, visit_index, script_url, hash)
);
CREATE INDEX IF NOT EXISTS occurrences_hash ON occurrences(hash);
CREATE TABLE IF NOT EXISTS analysis_cache (
    hash TEXT NOT NULL,
    pattern_version TEXT NOT NULL,
    preprocess INTEGER NOT NULL,
    matched_json TEXT NOT NULL,
    PRIMARY KEY (hash, pattern_version, preprocess)
);
CREATE TABLE IF NOT EXISTS corpus_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Bump when the on-disk layout changes incompatibly.
CORPUS_FORMAT = "1"

#: zlib default when ``REPRO_CORPUS_ZLEVEL`` is unset. Level 6 is
#: zlib's own default — a good size/speed balance. Lower levels trade
#: corpus size for recording throughput (0 stores ~3-4x bigger but
#: compresses ~10x faster on script-sized bodies); 9 shaves a few
#: percent off disk at a real CPU cost. See docs/bundles in README.
DEFAULT_ZLEVEL = 6


def zlevel_from_env() -> int:
    """Compression level from ``REPRO_CORPUS_ZLEVEL`` (0-9)."""
    raw = os.environ.get("REPRO_CORPUS_ZLEVEL")
    if raw is None:
        return DEFAULT_ZLEVEL
    try:
        level = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_CORPUS_ZLEVEL must be an integer 0-9, "
            f"got {raw!r}") from None
    if not 0 <= level <= 9:
        raise ValueError(
            f"REPRO_CORPUS_ZLEVEL must be in 0-9, got {level}")
    return level


class MissingScriptError(KeyError):
    """A hash referenced by evidence has no body in the corpus."""

    def __init__(self, digest: str) -> None:
        super().__init__(digest)
        self.digest = digest

    def __str__(self) -> str:
        return (f"script {self.digest!r} is not in the corpus — the "
                "evidence references a body that was never stored (or "
                "was vacuumed); re-run the scan without --resume to "
                "rebuild the corpus")


def script_hash(source: str) -> str:
    """The content address of one script body."""
    return hashlib.sha256(source.encode("utf-8", "surrogatepass")) \
        .hexdigest()


def corpus_path_for(queue_path: str) -> str:
    """The corpus sidecar path for a queue file."""
    if queue_path == ":memory:":
        return ":memory:"
    return queue_path + ".corpus"


def cache_enabled_from_env() -> bool:
    return os.environ.get("REPRO_CORPUS_CACHE", "on").lower() != "off"


class SiteBatch:
    """One attempt's corpus writes for one site.

    Script bodies accumulate in memory and are written in a single
    transaction per visit (:meth:`flush_visit`). The site's occurrence
    rows are not written by the attempt: :meth:`commit` lands them once
    the queue accepts its completion.
    """

    def __init__(self, corpus: "ScriptCorpus", site: str) -> None:
        self.corpus = corpus
        self.site = site
        self._pending_bodies: Dict[str, str] = {}

    def add(self, source: str) -> str:
        """Record one collected script body; returns its address."""
        digest = script_hash(source)
        if digest not in self._pending_bodies \
                and not self.corpus.has(digest):
            self._pending_bodies[digest] = source
        return digest

    def flush_visit(self) -> None:
        """Write the current visit's new bodies."""
        self.corpus.put_many(self._pending_bodies)
        self._pending_bodies = {}

    def commit(self, evidences: List["VisitEvidence"],
               bodies: Optional[Dict[str, str]] = None,
               analysis: Iterable[Tuple[str, str, int, str]] = ()
               ) -> None:
        """Land *evidences* as the site's record, in one transaction.

        One occurrence row per distinct ``(visit position, script_url,
        hash)`` of the evidence replaces the site's earlier live rows,
        with refcounts kept equal to live occurrence counts. *bodies*
        and *analysis* rows (an attempt that ran against another
        corpus ships them) are stored in the same transaction.
        """
        rows = list(dict.fromkeys(
            (self.site, index, script_url, digest)
            for index, evidence in enumerate(evidences)
            for script_url, digest in evidence.scripts))
        self.corpus._land(self.site, rows,
                          {**self._pending_bodies, **(bodies or {})},
                          list(analysis))
        self._pending_bodies = {}


class ScriptCorpus:
    """Content-addressed script store + memoized static analysis."""

    def __init__(self, path: str = ":memory:",
                 cache_enabled: Optional[bool] = None,
                 zlevel: Optional[int] = None) -> None:
        self.path = path
        self.cache_enabled = cache_enabled_from_env() \
            if cache_enabled is None else cache_enabled
        self.zlevel = zlevel_from_env() if zlevel is None else zlevel
        if not 0 <= self.zlevel <= 9:
            raise ValueError(f"zlevel must be in 0-9, got {self.zlevel}")
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._memo: Dict[Tuple[str, bool], List[str]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        with self._lock:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR REPLACE INTO corpus_meta (key, value) "
                "VALUES ('format', ?)", (CORPUS_FORMAT,))
            self._conn.commit()

    # -- bodies --------------------------------------------------------
    def put(self, source: str) -> str:
        """Store one body directly (no occurrence; test convenience)."""
        digest = script_hash(source)
        with self._lock:
            self._insert_body(digest, source)
            self._conn.commit()
        return digest

    def put_many(self, sources: Dict[str, str]) -> None:
        """Store many bodies keyed by their (precomputed) digests in
        one transaction (the bundle writer's per-site commit)."""
        if not sources:
            return
        with self._lock:
            for digest, source in sources.items():
                self._insert_body(digest, source)
            self._conn.commit()

    def _insert_body(self, digest: str, source: str) -> None:
        raw = source.encode("utf-8", "surrogatepass")
        body = zlib.compress(raw, self.zlevel)
        self._conn.execute(
            "INSERT OR IGNORE INTO scripts "
            "(hash, body, raw_bytes, stored_bytes, refcount) "
            "VALUES (?, ?, ?, ?, 0)",
            (digest, body, len(raw), len(body)))

    def has(self, digest: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM scripts WHERE hash = ?",
                (digest,)).fetchone()
        return row is not None

    def source(self, digest: str) -> str:
        with self._lock:
            row = self._conn.execute(
                "SELECT body FROM scripts WHERE hash = ?",
                (digest,)).fetchone()
        if row is None:
            raise MissingScriptError(digest)
        return zlib.decompress(row["body"]).decode("utf-8",
                                                   "surrogatepass")

    def sources(self) -> Dict[str, str]:
        """hash -> source for every stored body (sorted by hash)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT hash, body FROM scripts ORDER BY hash").fetchall()
        return {row["hash"]: zlib.decompress(row["body"]).decode(
            "utf-8", "surrogatepass") for row in rows}

    # -- memoized static analysis --------------------------------------
    def scan(self, digest: str, script_url: str = "",
             preprocess: bool = True) -> PatternHit:
        """Static-analyse one stored script, memoized per pattern set.

        Equivalent to ``scan_script(source, script_url, preprocess)``
        by construction: on a miss the verdict *is* a direct
        ``scan_script`` call, and only the matched-pattern list is
        cached. Raises :class:`MissingScriptError` for unknown hashes
        rather than classifying on an empty source.
        """
        # Deferred import: repro.core.scan.pipeline imports this
        # package, so a module-level import here would be circular
        # whenever repro.corpus is imported first (e.g. by the CLI's
        # ``stats --corpus`` path).
        from repro.core.scan.static_analysis import (
            PATTERN_SET_VERSION,
            PatternHit,
            scan_script,
        )

        if not self.cache_enabled:
            return scan_script(self.source(digest), script_url,
                               preprocess=preprocess)
        memo_key = (digest, preprocess)
        with self._lock:
            matched = self._memo.get(memo_key)
            if matched is None:
                row = self._conn.execute(
                    "SELECT matched_json FROM analysis_cache WHERE "
                    "hash = ? AND pattern_version = ? AND preprocess = ?",
                    (digest, PATTERN_SET_VERSION,
                     int(preprocess))).fetchone()
                if row is not None:
                    matched = row["matched_json"].split(",") \
                        if row["matched_json"] else []
                    self._memo[memo_key] = matched
            if matched is not None:
                self.cache_hits += 1
                return PatternHit(script_url=script_url,
                                  matched=list(matched))
            self.cache_misses += 1
            hit = scan_script(self.source(digest), script_url,
                              preprocess=preprocess)
            self._memo[memo_key] = list(hit.matched)
            self._conn.execute(
                "INSERT OR REPLACE INTO analysis_cache "
                "(hash, pattern_version, preprocess, matched_json) "
                "VALUES (?, ?, ?, ?)",
                (digest, PATTERN_SET_VERSION, int(preprocess),
                 ",".join(hit.matched)))
            self._conn.commit()
            return hit

    # -- landing a settled attempt -------------------------------------
    def site_batch(self, site: str) -> SiteBatch:
        return SiteBatch(self, site)

    def _land(self, site: str, rows: List[Tuple[str, int, str, str]],
              bodies: Dict[str, str],
              analysis: List[Tuple[str, str, int, str]]) -> None:
        with self._lock:
            try:
                for digest, source in bodies.items():
                    self._insert_body(digest, source)
                self._retract_site_locked(site)
                self._conn.executemany(
                    "INSERT INTO occurrences "
                    "(site, visit_index, script_url, hash) "
                    "VALUES (?, ?, ?, ?)", rows)
                self._conn.executemany(
                    "UPDATE scripts SET refcount = refcount + 1 "
                    "WHERE hash = ?", [(row[3],) for row in rows])
                self._conn.executemany(
                    "INSERT OR IGNORE INTO analysis_cache "
                    "(hash, pattern_version, preprocess, matched_json) "
                    "VALUES (?, ?, ?, ?)", analysis)
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise

    def retract_site(self, site: str) -> None:
        """Remove a site's live occurrence rows and their refcounts."""
        with self._lock:
            self._retract_site_locked(site)
            self._conn.commit()

    def _retract_site_locked(self, site: str) -> None:
        rows = self._conn.execute(
            "SELECT hash, COUNT(*) AS n FROM occurrences "
            "WHERE site = ? GROUP BY hash", (site,)).fetchall()
        for row in rows:
            self._conn.execute(
                "UPDATE scripts SET refcount = refcount - ? "
                "WHERE hash = ?", (row["n"], row["hash"]))
        self._conn.execute("DELETE FROM occurrences WHERE site = ?",
                           (site,))

    def vacuum(self) -> int:
        """Drop bodies referenced by no live occurrence."""
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM scripts WHERE refcount <= 0 "
                "AND hash NOT IN (SELECT hash FROM occurrences)")
            self._conn.execute(
                "DELETE FROM analysis_cache WHERE hash NOT IN "
                "(SELECT hash FROM scripts)")
            self._conn.commit()
            return cursor.rowcount

    # -- bookkeeping ---------------------------------------------------
    def sites(self) -> List[str]:
        """Every site with live occurrence rows, sorted."""
        with self._lock:
            return [row["site"] for row in self._conn.execute(
                "SELECT DISTINCT site FROM occurrences ORDER BY site")]

    def occurrence_rows(self) -> List[Tuple[str, int, str, str]]:
        """Sorted live index rows, for equality checks across runs."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT site, visit_index, script_url, hash "
                "FROM occurrences "
                "ORDER BY site, visit_index, script_url, hash").fetchall()
        return [(row["site"], row["visit_index"], row["script_url"],
                 row["hash"]) for row in rows]

    def hashes(self, live_only: bool = True) -> List[str]:
        sql = "SELECT hash FROM scripts"
        if live_only:
            sql += " WHERE refcount > 0"
        with self._lock:
            rows = self._conn.execute(sql + " ORDER BY hash").fetchall()
        return [row["hash"] for row in rows]

    def precompile(self, digests: Optional[List[str]] = None) -> int:
        """Warm the engine's process-wide compiled-AST cache.

        Parses and closure-compiles each stored body so re-executions —
        a resumed crawl, a paired re-visit, Sec. 5 PoC replays — skip
        straight to the cached program. The corpus and the engine cache
        share the same sha256 key (:func:`script_hash` ==
        :func:`repro.jsengine.interpreter.source_digest`), so one entry
        serves every occurrence. Scripts that fail to parse are skipped
        (they fail identically at execution time). Returns the number
        of scripts warmed.
        """
        from repro.jsengine.interpreter import warm_compile_cache

        if digests is None:
            digests = self.hashes(live_only=True)
        warmed = 0
        for digest in digests:
            try:
                warm_compile_cache(self.source(digest))
            except MissingScriptError:
                continue
            except Exception:
                continue
            warmed += 1
        return warmed

    def export_analysis_cache(self) -> List[Tuple[str, str, int, str]]:
        """Every memoized static-analysis row, for archival/seeding."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT hash, pattern_version, preprocess, matched_json "
                "FROM analysis_cache "
                "ORDER BY hash, pattern_version, preprocess").fetchall()
        return [(row["hash"], row["pattern_version"],
                 int(row["preprocess"]), row["matched_json"])
                for row in rows]

    def import_analysis_cache(
            self, rows: List[Tuple[str, str, int, str]]) -> int:
        """Seed the memo table from exported rows (INSERT OR IGNORE).

        Rows are keyed by (hash, pattern-set version, preprocess), so
        entries from an older pattern set simply never match a lookup
        — importing is always semantics-free. Returns rows added.
        """
        if not rows:
            return 0
        with self._lock:
            before = int(self._conn.execute(
                "SELECT COUNT(*) AS n FROM analysis_cache"
            ).fetchone()["n"])
            self._conn.executemany(
                "INSERT OR IGNORE INTO analysis_cache "
                "(hash, pattern_version, preprocess, matched_json) "
                "VALUES (?, ?, ?, ?)", rows)
            after = int(self._conn.execute(
                "SELECT COUNT(*) AS n FROM analysis_cache"
            ).fetchone()["n"])
            self._conn.commit()
        return after - before

    # -- integrity -----------------------------------------------------
    def verify(self) -> Dict[str, object]:
        """Re-hash every stored blob against its key; find orphans.

        The content address is the only line of defense between a
        flipped bit on disk and a silently wrong replay/classification,
        so the check is exhaustive: every body is decompressed and
        re-hashed, every occurrence/analysis row must reference
        a stored body, and refcounts must equal live occurrence counts.
        """
        corrupt: List[Dict[str, str]] = []
        with self._lock:
            rows = self._conn.execute(
                "SELECT hash, body, raw_bytes FROM scripts "
                "ORDER BY hash").fetchall()
            checked = 0
            for row in rows:
                checked += 1
                try:
                    raw = zlib.decompress(row["body"])
                except zlib.error as exc:
                    corrupt.append({"hash": row["hash"],
                                    "error": f"undecompressible: {exc}"})
                    continue
                digest = hashlib.sha256(raw).hexdigest()
                if digest != row["hash"]:
                    corrupt.append({"hash": row["hash"],
                                    "error": f"content hashes to "
                                             f"{digest}"})
                elif len(raw) != int(row["raw_bytes"]):
                    corrupt.append({"hash": row["hash"],
                                    "error": f"raw size {len(raw)} != "
                                             f"recorded "
                                             f"{row['raw_bytes']}"})

            def _orphans(table: str) -> List[str]:
                return [r["hash"] for r in self._conn.execute(
                    f"SELECT DISTINCT hash FROM {table} "  # noqa: S608
                    "WHERE hash NOT IN (SELECT hash FROM scripts) "
                    "ORDER BY hash")]

            orphaned_occurrences = _orphans("occurrences")
            orphaned_analysis = _orphans("analysis_cache")
            refcount_drift = [
                {"hash": r["hash"], "refcount": int(r["refcount"]),
                 "occurrences": int(r["n"])}
                for r in self._conn.execute(
                    "SELECT s.hash AS hash, s.refcount AS refcount, "
                    "COUNT(o.hash) AS n FROM scripts s "
                    "LEFT JOIN occurrences o ON o.hash = s.hash "
                    "GROUP BY s.hash HAVING s.refcount != COUNT(o.hash) "
                    "ORDER BY s.hash")]
        return {
            "path": self.path,
            "bodies_checked": checked,
            "corrupt": corrupt,
            "orphaned_occurrences": orphaned_occurrences,
            "orphaned_analysis": orphaned_analysis,
            "refcount_drift": refcount_drift,
            "ok": not (corrupt or orphaned_occurrences
                       or orphaned_analysis or refcount_drift),
        }

    def total_stored_bytes(self) -> int:
        """Compressed bytes across *all* stored bodies (any refcount)."""
        with self._lock:
            return int(self._conn.execute(
                "SELECT COALESCE(SUM(stored_bytes), 0) AS n "
                "FROM scripts").fetchone()["n"])

    def total_raw_bytes(self) -> int:
        """Uncompressed bytes across all stored bodies."""
        with self._lock:
            return int(self._conn.execute(
                "SELECT COALESCE(SUM(raw_bytes), 0) AS n "
                "FROM scripts").fetchone()["n"])

    def stats(self) -> Dict[str, float]:
        """Dedup / compression / cache effectiveness, one dict."""
        with self._lock:
            occurrences = int(self._conn.execute(
                "SELECT COUNT(*) AS n FROM occurrences").fetchone()["n"])
            live = self._conn.execute(
                "SELECT COUNT(*) AS n, "
                "COALESCE(SUM(raw_bytes), 0) AS raw, "
                "COALESCE(SUM(stored_bytes), 0) AS stored "
                "FROM scripts WHERE refcount > 0").fetchone()
            total_bodies = int(self._conn.execute(
                "SELECT COUNT(*) AS n FROM scripts").fetchone()["n"])
            raw_total = int(self._conn.execute(
                "SELECT COALESCE(SUM(s.raw_bytes), 0) AS n "
                "FROM occurrences o JOIN scripts s ON s.hash = o.hash"
            ).fetchone()["n"])
            cache_entries = int(self._conn.execute(
                "SELECT COUNT(*) AS n FROM analysis_cache").fetchone()["n"])
        unique = int(live["n"])
        lookups = self.cache_hits + self.cache_misses
        return {
            "unique_scripts": unique,
            "stored_bodies": total_bodies,
            "occurrences": occurrences,
            "dedup_ratio": occurrences / unique if unique else 0.0,
            "raw_bytes": raw_total,
            "unique_raw_bytes": int(live["raw"]),
            "corpus_bytes": int(live["stored"]),
            "cache_enabled": self.cache_enabled,
            "cache_entries": cache_entries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hits / lookups if lookups
            else 0.0,
        }

    def clear(self) -> None:
        with self._lock:
            for table in ("scripts", "occurrences", "analysis_cache"):
                self._conn.execute(f"DELETE FROM {table}")  # noqa: S608
            self._memo.clear()
            self.cache_hits = 0
            self.cache_misses = 0
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()
