"""Deterministic fault injection and crawl supervision.

Offense: :class:`FaultPlan` — seeded, composable rules injecting
crashes, hangs, network faults, storage errors, and worker deaths at
named choke points across the crawl stack (see :mod:`repro.faults.plan`
for the choke-point table).

Defense: :class:`Watchdog` visit deadlines, the per-site
:class:`CircuitBreaker` quarantine, and :class:`CrashLoopDetector`
browser-slot cooldowns (:mod:`repro.faults.supervision`).

The chaos harness (``tests/test_faults.py``) runs scheduled crawls
under randomized seeded plans and asserts the accounting invariant:
every enqueued site ends exactly once as a completed visit, a
``failed_visits`` row, or a ``quarantined_sites`` row — even across a
kill + ``--resume``.
"""

from repro.faults.plan import (
    CHOKE_POINTS,
    DEFAULT_HANG_SECONDS,
    DEFAULT_SLOW_SECONDS,
    FAULT_KINDS,
    FaultPlan,
    FaultRule,
    InjectedFault,
    NetworkFault,
)
from repro.faults.supervision import (
    CircuitBreaker,
    CrashLoopDetector,
    VisitDeadlineExceeded,
    Watchdog,
)

__all__ = [
    "CHOKE_POINTS",
    "DEFAULT_HANG_SECONDS",
    "DEFAULT_SLOW_SECONDS",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "NetworkFault",
    "CircuitBreaker",
    "CrashLoopDetector",
    "VisitDeadlineExceeded",
    "Watchdog",
]
