"""SQL-injection probe against the storage backend (paper RQ7, Sec. 5.3).

Deleting or altering already recorded data would require an injection
into the SQLite backend. The probe drives hostile strings through the
full pipeline — page script → forged instrument event → storage — and
verifies the database neither executed them nor lost rows, matching the
paper's finding that OpenWPM's backend sanitises its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.browser.profiles import BrowserProfile, openwpm_profile
from repro.core.attacks.dispatcher import (
    FAKE_INJECTION_ATTACK,
    _make_extension,
)
from repro.core.lab import visit_with_scripts
from repro.openwpm.storage import StorageController

#: Classic payloads, smuggled through every attacker-controlled field.
INJECTION_PAYLOADS = [
    "'); DROP TABLE javascript; --",
    "\"; DELETE FROM javascript; --",
    "1; UPDATE javascript SET symbol='owned'",
    "' OR '1'='1",
]


@dataclass
class SQLInjectionOutcome:
    attack: str = "sql-injection"
    succeeded: bool = False  # True would mean the DB was corrupted
    payloads_stored_verbatim: int = 0
    tables_intact: bool = True
    rows_before: int = 0
    rows_after: int = 0
    details: str = ""


def run_sql_injection_probe(profile: Optional[BrowserProfile] = None
                            ) -> SQLInjectionOutcome:
    """Drive hostile payloads through the recording pipeline."""
    storage = StorageController(":memory:")
    extension = _make_extension(stealth=False, storage=storage.recorder)
    profile = profile or openwpm_profile("ubuntu", "regular")

    # Seed some legitimate rows whose survival we check.
    storage.begin_visit(browser_id=0, site_url="https://lab.test/")
    visit_with_scripts(profile, ["navigator.userAgent; screen.width;"],
                       extension=extension)
    storage.end_visit()
    rows_before = len(storage.javascript_records())

    storage.begin_visit(browser_id=0, site_url="https://lab.test/")
    for payload in INJECTION_PAYLOADS:
        source = (FAKE_INJECTION_ATTACK
                  .replace("__FAKE_SYMBOL__", payload.replace('"', '\\"'))
                  .replace("__FAKE_VALUE__", payload.replace('"', '\\"'))
                  .replace("__FAKE_ARGS__", "x")
                  .replace("__FAKE_SCRIPT_URL__", "https://evil.test/a.js"))
        visit_with_scripts(profile, [source], extension=extension)
    storage.end_visit()

    rows = storage.javascript_records()
    tables_intact = True
    try:
        storage.query("SELECT COUNT(*) FROM javascript")
        storage.query("SELECT COUNT(*) FROM http_requests")
    except Exception:  # noqa: BLE001 - table dropped = attack succeeded
        tables_intact = False

    stored_verbatim = sum(
        1 for row in rows
        if any(payload in (row["symbol"] or "")
               or payload in (row["value"] or "")
               for payload in INJECTION_PAYLOADS))

    succeeded = (not tables_intact) or len(rows) < rows_before
    return SQLInjectionOutcome(
        succeeded=succeeded,
        payloads_stored_verbatim=stored_verbatim,
        tables_intact=tables_intact,
        rows_before=rows_before,
        rows_after=len(rows),
        details="backend parameterises statements; payloads stored as "
                "inert text" if not succeeded else "DATABASE CORRUPTED")
