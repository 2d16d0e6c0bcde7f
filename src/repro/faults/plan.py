"""Seeded deterministic fault injection: :class:`FaultPlan`.

The paper's thesis is that web measurement tools fail *silently*; the
only failure the reproduction could provoke until now was a Bernoulli
coin-flip crash at visit start (``manager_params.crash_probability``).
A :class:`FaultPlan` generalises that into a composable, seeded rule
set injected at named choke points across the crawl stack
(:data:`CHOKE_POINTS` is the same list in code; a rule whose ``point``
names none of them is rejected):

==================== ===================================================
choke point          injected by
==================== ===================================================
``visit.start``      task manager, before the page load (the legacy
                     ``crash_probability`` position)
``visit.page_load``  task manager, before the browser visit
``visit.interaction``  task manager, before the interaction driver
``visit.callbacks``  task manager, before the command callbacks
``visit.storage_commit``  task manager, before the visit commit
``network.fetch``    :class:`repro.net.network.Network`, per request
``storage.begin_visit``  a slot's visit recorder, before the visit
                     opens
``pool.lease``       worker pool, right after a job is claimed
``proc.claim``       process worker, right after a cross-process claim
``proc.mid_visit``   process worker, inside the visit (as a command
                     callback, after records were produced)
``proc.envelope``    process worker, just before shipping the visit
                     envelope to the storage broker
``proc.respawn``     process supervisor, when respawning a dead worker
==================== ===================================================

Fault kinds: ``crash`` (browser dies, restart + retry machinery runs),
``hang`` (burns virtual time; only a watchdog deadline rescues the
visit — at ``proc.*`` points the sleep is *real* wall time without
heartbeats, so the process supervisor's SIGKILL ladder is what rescues
it), ``connection_reset`` (the fetch raises :class:`NetworkFault`),
``slow_response`` (burns virtual time but the fetch succeeds),
``truncated_body`` (the response body is silently halved — data
corruption, not failure), ``storage_busy`` (``begin_visit`` raises
``sqlite3.OperationalError``), ``worker_death`` (the pool worker
abandons its freshly claimed job and lets the lease expire),
``worker_sigkill`` (the worker *process* SIGKILLs itself — no cleanup,
no goodbye; the supervisor must reap, release its leases, and
respawn), ``broker_pipe_error`` (the worker's connection to the
storage broker breaks mid-send, exercising envelope loss), and
``respawn_failure`` (the supervisor's respawn attempt itself fails,
driving the crash-loop backoff → pool-shrink ladder).

Determinism: every probabilistic rule draws from its own
``random.Random`` seeded from ``(plan seed, rule index)``, so a re-run
of the same plan over the same site order fires identically. Matching
state (occurrence counters, fire counts) is kept under one lock so
concurrent workers can share a plan; under thread interleaving the
*set* of faults stays seed-determined even when their order does not.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Recognised fault kinds.
FAULT_KINDS = (
    "crash",
    "hang",
    "connection_reset",
    "slow_response",
    "truncated_body",
    "storage_busy",
    "worker_death",
    "worker_sigkill",
    "broker_pipe_error",
    "respawn_failure",
)

#: Every point a rule can fire at — one entry per row of the module
#: docstring's table, in the same order.
CHOKE_POINTS = (
    "visit.start",
    "visit.page_load",
    "visit.interaction",
    "visit.callbacks",
    "visit.storage_commit",
    "network.fetch",
    "storage.begin_visit",
    "pool.lease",
    "proc.claim",
    "proc.mid_visit",
    "proc.envelope",
    "proc.respawn",
)

#: Virtual seconds burned by a ``hang`` with no explicit ``seconds``.
DEFAULT_HANG_SECONDS = 600.0
#: Virtual seconds burned by a ``slow_response`` with no ``seconds``.
DEFAULT_SLOW_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """Base class for exceptions raised by injected faults."""


class NetworkFault(InjectedFault):
    """An injected network-level failure (connection reset)."""


def _glob(pattern: str) -> bool:
    return any(ch in pattern for ch in "*?[")


def _match_point(pattern: str, point: str) -> bool:
    if _glob(pattern):
        return fnmatchcase(point, pattern)
    return pattern == point


def _match_site(pattern: str, url: str) -> bool:
    """Glob when the pattern looks like one, substring otherwise."""
    if _glob(pattern):
        return fnmatchcase(url, pattern)
    return pattern in url


@dataclass
class FaultRule:
    """One injection rule.

    ``point`` and ``site`` accept ``fnmatch`` globs (``visit.*``,
    ``*site-0001*``); ``point`` must name, or glob-match, at least one
    of :data:`CHOKE_POINTS`. A glob-free ``site`` matches as a substring of
    the URL. ``nth`` fires only on the nth matching occurrence
    (1-based); ``probability`` draws from the rule's dedicated RNG on
    every match; ``times`` caps how often the rule fires in total;
    ``seconds`` parameterises time-burning faults.
    """

    fault: str
    point: str = "visit.start"
    site: Optional[str] = None
    nth: Optional[int] = None
    probability: Optional[float] = None
    times: Optional[int] = None
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.fault not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault {self.fault!r}; expected one of "
                f"{FAULT_KINDS}")
        if not any(_match_point(self.point, point)
                   for point in CHOKE_POINTS):
            raise ValueError(
                f"fault point {self.point!r} matches no choke point; "
                f"expected one of {CHOKE_POINTS} (or a glob over them)")
        if self.probability is not None \
                and not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based; must be >= 1")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1")


@dataclass
class _RuleState:
    occurrences: int = 0
    fires: int = 0


def _rule_rng(seed: int, index: int) -> random.Random:
    # Stable across Python versions and platforms.
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class FaultPlan:
    """A seeded, composable set of :class:`FaultRule`\\ s.

    Thread-safe; one plan is shared by the task manager, the network,
    the storage controller, and the worker pool.
    """

    def __init__(self, rules: Sequence[FaultRule] = (),
                 seed: int = 0) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = list(rules)
        self._rngs: List[random.Random] = [
            _rule_rng(seed, index) for index in range(len(self.rules))]
        self._states: List[_RuleState] = [
            _RuleState() for _ in self.rules]
        self._lock = threading.Lock()
        self.clock: Optional[Any] = None
        #: (point, url, rule_index, fault) for every firing — test aid.
        self.fired: List[Tuple[str, str, int, str]] = []
        self.burned_seconds = 0.0
        #: Flight-recorder hook ``fn(point, url, rule_index, fault)``
        #: fired once per injection, outside the plan lock.
        self.on_trigger: Optional[Any] = None

    # ------------------------------------------------------------------
    def add_rule(self, rule: FaultRule,
                 rng: Optional[random.Random] = None) -> None:
        """Append a rule; ``rng`` overrides its dedicated RNG.

        The override is what the ``crash_probability`` compatibility
        shim uses to keep drawing from the task manager's own RNG, so
        legacy crawls stay bit-identical.
        """
        self.rules.append(rule)
        self._rngs.append(rng if rng is not None
                          else _rule_rng(self.seed, len(self.rules) - 1))
        self._states.append(_RuleState())

    @classmethod
    def legacy_crash(cls, probability: float,
                     rng: Optional[random.Random] = None) -> "FaultPlan":
        """The old ``crash_probability`` Bernoulli as a one-rule plan."""
        plan = cls()
        plan.add_rule(FaultRule(fault="crash", point="visit.start",
                                probability=probability), rng=rng)
        return plan

    # ------------------------------------------------------------------
    def bind_clock(self, clock: Any) -> None:
        """Attach the virtual clock that time-burning faults advance."""
        self.clock = clock

    def burn(self, seconds: float) -> None:
        """Advance the bound clock (hang / slow-response faults)."""
        if seconds <= 0:
            return
        with self._lock:
            self.burned_seconds += seconds
        if self.clock is not None:
            self.clock.advance(seconds)

    # ------------------------------------------------------------------
    def check(self, point: str, url: str = "") -> Optional[FaultRule]:
        """First rule firing at *point* for *url*, or ``None``.

        A probabilistic rule draws on **every** match (even when its
        ``times`` budget is spent), so RNG consumption — and therefore
        every later draw — does not depend on earlier firing outcomes.
        """
        if not self.rules:
            return None
        hit: Optional[FaultRule] = None
        hit_index = -1
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not _match_point(rule.point, point):
                    continue
                if rule.site is not None \
                        and not _match_site(rule.site, url):
                    continue
                state = self._states[index]
                state.occurrences += 1
                if rule.probability is not None:
                    draw = self._rngs[index].random()
                    if draw >= rule.probability:
                        continue
                if rule.nth is not None \
                        and state.occurrences != rule.nth:
                    continue
                if rule.times is not None and state.fires >= rule.times:
                    continue
                state.fires += 1
                self.fired.append((point, url, index, rule.fault))
                hit, hit_index = rule, index
                break
        if hit is not None and self.on_trigger is not None:
            # Outside the lock: the hook may journal, which takes its
            # own locks and must never nest inside the plan's.
            self.on_trigger(point, url, hit_index, hit.fault)
        return hit

    def preconsume(self, index: int, fires: int) -> None:
        """Mark *fires* earlier firings of rule *index* as spent.

        The process supervisor uses this when respawning a worker: the
        fresh process rebuilds the plan from its serialized form (rule
        states reset to zero), so without pre-consuming, a ``times``-
        capped ``worker_sigkill`` rule would fire again on every
        respawn and kill-loop the slot. RNG streams are untouched —
        rules keep their index-derived generators.
        """
        if fires <= 0:
            return
        with self._lock:
            self._states[index].fires += fires

    def fire_count(self, fault: Optional[str] = None) -> int:
        with self._lock:
            return sum(1 for item in self.fired
                       if fault is None or item[3] == fault)

    # ------------------------------------------------------------------
    # Serialisation (``repro crawl --fault-plan plan.json``)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "rules": [asdict(rule) for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        rules = []
        for raw in data.get("rules", []):
            unknown = set(raw) - {
                "fault", "point", "site", "nth", "probability", "times",
                "seconds"}
            if unknown:
                raise ValueError(
                    f"unknown fault-rule fields: {sorted(unknown)}")
            rules.append(FaultRule(**raw))
        return cls(rules, seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultPlan(seed={self.seed}, "
                f"rules={len(self.rules)}, fired={len(self.fired)})")
