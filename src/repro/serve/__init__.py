"""``repro.serve`` — the production read path over crawl databases.

Three layers (see DESIGN.md):

* :mod:`repro.serve.rollups` — incremental aggregation into
  read-optimized ``rollups_*`` tables, maintained in lock-step with
  every raw-table mutation plus cold backfill
  (``build``) and differential verification (``verify``);
* :mod:`repro.serve.aggregates` — canonical JSON payloads, each with a
  batch twin recomputed from the raw tables so served answers can be
  pinned byte-for-byte against the batch pipeline;
* :mod:`repro.serve.api` / :mod:`repro.serve.cache` — the threaded
  HTTP server over read-only WAL snapshots, fronted by an LRU/TTL
  response cache invalidated by rollup generation counters.
"""

from repro.serve.aggregates import (
    AGGREGATE_BUILDERS,
    database_section,
    drop_reasons_section,
    encode_payload,
)
from repro.serve.api import ResultServer, ServeError, etag_for, json_get
from repro.serve.cache import CachedResponse, ResponseCache
from repro.serve.rollups import (
    ROLLUP_SCHEMA_VERSION,
    ROLLUP_TABLES,
    RollupMaintainer,
    VisitDelta,
    batch_state,
    build,
    generation,
    rollup_state,
    rollups_present,
    rollups_state,
    verify,
)

__all__ = [
    "AGGREGATE_BUILDERS", "CachedResponse", "ResponseCache",
    "ResultServer", "RollupMaintainer", "ROLLUP_SCHEMA_VERSION",
    "ROLLUP_TABLES", "ServeError", "VisitDelta", "batch_state",
    "build", "database_section", "drop_reasons_section",
    "encode_payload", "etag_for", "generation", "json_get",
    "rollup_state", "rollups_present", "rollups_state", "verify",
]
