"""Crawl supervision: visit deadlines, circuit breaker, crash-loop cooldown.

The defensive half of :mod:`repro.faults`. Fault injection proves the
crawl stack *can* hang, crash-loop, or burn a whole run on one hostile
site; these classes are what the task manager deploys against that:

* :class:`Watchdog` — per-stage visit deadlines on the virtual clock.
  A stage that overruns raises :class:`VisitDeadlineExceeded`; the task
  manager aborts the visit (discarding its partial rows) and restarts
  the browser slot instead of hanging forever.
* :class:`CircuitBreaker` — a per-site failure counter. A site that
  keeps killing browsers across N restarts is quarantined: recorded in
  the ``quarantined_sites`` table, skipped thereafter, surfaced by
  ``repro stats``.
* :class:`CrashLoopDetector` — a browser slot that restarts repeatedly
  within a short window gets an exponentially growing cooldown instead
  of hot-looping relaunches.

All three are thread-safe (shared across pool workers) and purely
clock-driven — they never touch wall time, so supervised crawls stay
deterministic.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional


class VisitDeadlineExceeded(RuntimeError):
    """A visit stage overran its deadline (the visit is hung)."""

    def __init__(self, url: str, stage: str, elapsed: float,
                 deadline: float) -> None:
        super().__init__(
            f"visit stage {stage!r} for {url!r} ran {elapsed:.3f}s "
            f"(virtual) against a {deadline:.3f}s deadline")
        self.url = url
        self.stage = stage
        self.elapsed = elapsed
        self.deadline = deadline


class Watchdog:
    """Per-stage visit deadlines measured on the virtual clock.

    ``start()`` samples the clock (without ticking it — an armed
    watchdog over a healthy crawl is byte-identical to no watchdog);
    ``check(stage, started, url)`` raises when the elapsed virtual time
    exceeds the stage's deadline. ``stage_deadlines`` overrides the
    default per stage name.
    """

    def __init__(self, clock: Any,
                 default_deadline: Optional[float] = None,
                 stage_deadlines: Optional[Dict[str, float]] = None
                 ) -> None:
        self.clock = clock
        self.default_deadline = default_deadline
        self.stage_deadlines = dict(stage_deadlines or {})
        #: Flight-recorder hook ``fn(exc: VisitDeadlineExceeded)``
        #: fired just before the deadline exception propagates.
        self.on_abort: Optional[Any] = None

    def deadline_for(self, stage: str) -> Optional[float]:
        return self.stage_deadlines.get(stage, self.default_deadline)

    def start(self) -> float:
        return self.clock.peek()

    def check(self, stage: str, started: float, url: str = "") -> None:
        deadline = self.deadline_for(stage)
        if deadline is None:
            return
        elapsed = self.clock.peek() - started
        if elapsed > deadline:
            exc = VisitDeadlineExceeded(url, stage, elapsed, deadline)
            if self.on_abort is not None:
                self.on_abort(exc)
            raise exc


class CircuitBreaker:
    """Quarantine sites that keep failing across browser restarts."""

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self._lock = threading.Lock()
        self._failures: Dict[str, int] = {}
        self._open: Dict[str, bool] = {}

    def record_failure(self, site_url: str) -> bool:
        """Count one failure; True when this call *newly* opens the
        breaker (the caller records the quarantine exactly once)."""
        with self._lock:
            if self._open.get(site_url):
                return False
            count = self._failures.get(site_url, 0) + 1
            self._failures[site_url] = count
            if count >= self.threshold:
                self._open[site_url] = True
                return True
            return False

    def is_open(self, site_url: str) -> bool:
        with self._lock:
            return bool(self._open.get(site_url))

    def force_open(self, site_url: str) -> None:
        """Mark a site quarantined without counting (resume path)."""
        with self._lock:
            self._open[site_url] = True
            self._failures[site_url] = max(
                self._failures.get(site_url, 0), self.threshold)

    def reset(self, site_url: str) -> None:
        """Close the breaker and forget a site's failures (the site
        turned out fine — e.g. a voided attempt tripped it)."""
        with self._lock:
            self._open.pop(site_url, None)
            self._failures.pop(site_url, None)

    def failures(self, site_url: str) -> int:
        with self._lock:
            return self._failures.get(site_url, 0)

    def open_sites(self) -> List[str]:
        with self._lock:
            return sorted(site for site, is_open in self._open.items()
                          if is_open)


class CrashLoopDetector:
    """Cool down a browser slot that restarts repeatedly.

    ``on_restart(browser_id, now)`` returns how many (virtual) seconds
    the slot should cool down: 0.0 while restarts are sparse, then
    ``cooldown * 2**(streak-1)`` (capped) once ``threshold`` restarts
    land inside ``window`` seconds. The window resets after each
    triggered cooldown so a genuinely recovered slot starts clean.
    """

    def __init__(self, threshold: int, window_seconds: float = 10.0,
                 cooldown_seconds: float = 30.0,
                 max_backoff_factor: float = 8.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.window_seconds = window_seconds
        self.cooldown_seconds = cooldown_seconds
        self.max_backoff_factor = max_backoff_factor
        self._lock = threading.Lock()
        self._restarts: Dict[int, List[float]] = {}
        self._streaks: Dict[int, int] = {}

    def on_restart(self, browser_id: int, now: float) -> float:
        with self._lock:
            times = self._restarts.setdefault(browser_id, [])
            times.append(now)
            while times and now - times[0] > self.window_seconds:
                times.pop(0)
            if len(times) < self.threshold:
                return 0.0
            streak = self._streaks.get(browser_id, 0) + 1
            self._streaks[browser_id] = streak
            times.clear()
            return min(
                self.cooldown_seconds * 2.0 ** (streak - 1),
                self.cooldown_seconds * self.max_backoff_factor)
