"""The crawl flight recorder: an append-only JSONL event journal.

The paper's antidote to silent data loss is double-entry accounting;
the journal is the second book. While telemetry counters summarise a
crawl, the journal records *what happened, in order*: visit lifecycle
transitions, span open/close with virtual-clock timestamps, metric
deltas, fault injections, watchdog aborts, and scheduler lease events.
``repro stats --journal`` reconciles the journal against the
``telemetry``/``failed_visits``/``quarantined_sites`` tables and treats
divergence as a recording-integrity failure.

Design constraints (set by the multi-process roadmap item the journal
is built to precede):

* **One file per worker.** Each worker thread writes its own
  ``epoch-NNNN.<worker>.jsonl`` — no cross-worker lock on the hot path,
  and the exact on-disk shape the multi-process crawl
  (``--worker-procs``) writes, one epoch per worker process.
* **Crash-safe, append-only.** Events are written line-by-line and
  flushed at every state-changing event (visit/lease/fault/watchdog);
  high-volume span/metric events ride along in the buffer. A process
  killed mid-write leaves at most one torn final line per file, which
  :func:`read_journal_file` skips rather than fails on.
* **Deterministic order.** Events carry ``(epoch, t, worker, seq)``
  where ``t`` is a :class:`~repro.obs.clock.VirtualClock` *peek* (the
  recorder never advances the clock — recording must not perturb the
  crawl it records). :func:`merge_journal` reconstructs one total
  order across workers from those keys; a single-worker crawl merges
  byte-identically run over run.
* **Epochs.** A resumed crawl reopens the same journal directory; a
  ``MANIFEST`` line per run assigns it the next epoch so merge order
  is well-defined even though the virtual clock restarts at zero.

Event schema (every event)::

    {"epoch": 0, "seq": 12, "t": 3.017, "worker": "main",
     "type": "visit_complete", ...payload}

Payload fields by type are documented in DESIGN.md; the vocabulary is
``visit_*`` (lifecycle), ``span_open``/``span_close``, ``metric``
(counter deltas and gauge values, coalesced per ``(name, labels)``
over each flush window), ``fault``
(injections), ``watchdog_abort``, ``site_quarantined`` /
``quarantine_retracted`` / ``given_up_retracted``, ``lease_*`` /
``worker_death`` (scheduler), and ``profile_script`` /
``profile_function`` (the JS-engine profiler's end-of-run aggregates).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional

#: Journal format version, stamped into every MANIFEST line.
JOURNAL_FORMAT = 1

#: Event types that are buffered rather than flushed per event (high
#: volume, no crawl-state transition; the flush at the next lifecycle
#: event carries them out).
_BUFFERED_TYPES = frozenset(("span_open", "span_close", "metric"))

#: One shared C-accelerated encoder instance: ``json.dumps`` rebuilds
#: its encoder arguments on every call, and the journal serialises an
#: event for every span and metric mutation of the crawl. Keys keep
#: insertion order (sorting costs ~17% of encode time, and the order
#: is already deterministic: events are built by fixed code paths).
_serialize_event = json.JSONEncoder(
    separators=(",", ":"), default=str).encode


def journal_path_for(database_path: str) -> Optional[str]:
    """The default journal directory for a crawl database, or ``None``
    for in-memory databases (nowhere durable to put it)."""
    if database_path == ":memory:":
        return None
    return database_path + ".journal"


class JournalWriter:
    """One worker's append-only event file."""

    def __init__(self, path: str, worker: str, epoch: int,
                 clock: Any) -> None:
        self.path = path
        self.worker = worker
        self.epoch = epoch
        self.clock = clock
        self._seq = 0
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8")
        #: Coalesced metric mutations awaiting the next drain:
        #: ``(name, kind, labels_key) -> summed delta / last value``.
        self._metric_acc: Dict[Any, float] = {}

    def emit(self, event_type: str, **fields: Any) -> None:
        self._emit(event_type, fields)

    def add_metric(self, name: str, kind: str, labels_key: Any,
                   value: float) -> None:
        """Record one metric mutation, coalesced until the next drain.

        An instrumented visit mutates the same few counters hundreds of
        times; reconciliation only ever *sums* the journalled deltas,
        so accumulating per ``(name, labels)`` and journalling one
        aggregate event per flush window records the same books at a
        fraction of the serialisation volume. Counters sum; gauges keep
        their last value. Undrained mutations lost to a crash mirror
        the buffered-write loss window exactly.
        """
        key = (name, kind, labels_key)
        with self._lock:
            if kind == "counter":
                self._metric_acc[key] = \
                    self._metric_acc.get(key, 0.0) + value
            else:
                self._metric_acc[key] = value

    def _drain_metrics_locked(self) -> None:
        if not self._metric_acc:
            return
        for (name, kind, labels_key), value in self._metric_acc.items():
            record = {"type": "metric", "name": name, "kind": kind,
                      "labels": dict(labels_key),
                      "worker": self.worker, "epoch": self.epoch,
                      "t": self.clock.peek(), "seq": self._seq}
            record["delta" if kind == "counter" else "value"] = value
            self._seq += 1
            self._file.write(_serialize_event(record) + "\n")
        self._metric_acc.clear()

    def _emit(self, event_type: str, record: Dict[str, Any]) -> None:
        # *record* is owned by this call (emit hands over its fresh
        # kwargs dict) — annotating it in place skips a copy on the
        # crawl's hottest recording path.
        record["type"] = event_type
        record["worker"] = self.worker
        record["epoch"] = self.epoch
        # peek(), not now(): recording must never advance virtual time.
        record["t"] = self.clock.peek()
        buffered = event_type in _BUFFERED_TYPES
        with self._lock:
            if not buffered:
                # A state-changing event closes the flush window: the
                # metric aggregates it delimits land just before it.
                self._drain_metrics_locked()
            record["seq"] = self._seq
            self._seq += 1
            self._file.write(_serialize_event(record) + "\n")
            if not buffered:
                self._file.flush()

    def flush(self) -> None:
        with self._lock:
            self._drain_metrics_locked()
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._drain_metrics_locked()
                self._file.flush()
                self._file.close()


class Journal:
    """The crawl-wide flight recorder: one writer per worker.

    Threads bind a worker name with :meth:`bind_worker`; events emitted
    from unbound threads land in the shared ``main`` writer. The
    binding is thread-local, so concurrent workers never contend on a
    file, and the coordinator's events (enqueue, profiler aggregates,
    run metadata) stay separated from per-visit streams.
    """

    enabled = True

    def __init__(self, directory: str, clock: Any) -> None:
        self.directory = directory
        self.clock = clock
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._writers: Dict[str, JournalWriter] = {}
        self.epoch = self._claim_epoch()
        self._main = self.writer_for("main")

    def _claim_epoch(self) -> int:
        """Atomically claim the next free epoch number.

        Concurrent worker *processes* open the same journal directory
        (each claims its own epoch so per-process sequence numbers and
        restarted virtual clocks never interleave within one file).
        Counting MANIFEST lines and appending is racy across processes,
        so the claim itself is an ``O_CREAT | O_EXCL`` dotfile —
        ``.epoch-NNNN.claim`` — which exactly one process can win; the
        loser retries the next number. Claim files start with a dot so
        :func:`journal_files` never mistakes them for event files, and
        the MANIFEST line is appended only *after* the claim is won.
        """
        manifest = os.path.join(self.directory, "MANIFEST")
        epoch = 0
        if os.path.exists(manifest):
            epoch = len(read_journal_file(manifest))
        while True:
            claim = os.path.join(self.directory,
                                 f".epoch-{epoch:04d}.claim")
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                epoch += 1
                continue
            os.close(fd)
            break
        with open(manifest, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"epoch": epoch, "format": JOURNAL_FORMAT,
                 "t": self.clock.peek()},
                sort_keys=True, separators=(",", ":")) + "\n")
        return epoch

    # ------------------------------------------------------------------
    def writer_for(self, worker: str) -> JournalWriter:
        with self._lock:
            writer = self._writers.get(worker)
            if writer is None:
                path = os.path.join(
                    self.directory,
                    f"epoch-{self.epoch:04d}.{worker}.jsonl")
                writer = JournalWriter(path, worker, self.epoch,
                                       self.clock)
                self._writers[worker] = writer
            return writer

    def bind_worker(self, worker: str) -> JournalWriter:
        """Route this thread's events to *worker*'s file."""
        writer = self.writer_for(worker)
        self._local.writer = writer
        return writer

    def unbind(self) -> None:
        """Detach this thread (events fall back to the main writer)."""
        self._local.writer = None

    def _writer(self) -> JournalWriter:
        return getattr(self._local, "writer", None) or self._main

    # ------------------------------------------------------------------
    def emit(self, event_type: str, **fields: Any) -> None:
        self._writer()._emit(event_type, fields)

    def add_metric(self, name: str, kind: str, labels_key: Any,
                   value: float) -> None:
        self._writer().add_metric(name, kind, labels_key, value)

    def flush(self) -> None:
        with self._lock:
            writers = list(self._writers.values())
        for writer in writers:
            writer.flush()

    def close(self) -> None:
        with self._lock:
            writers = list(self._writers.values())
            self._writers.clear()
        for writer in writers:
            writer.close()


class NullJournal:
    """Disabled-mode journal: every call is a no-op."""

    enabled = False
    directory = None
    epoch = 0

    def writer_for(self, worker: str) -> "NullJournal":
        return self

    def bind_worker(self, worker: str) -> "NullJournal":
        return self

    def unbind(self) -> None:
        pass

    def emit(self, event_type: str, **fields: Any) -> None:
        pass

    def add_metric(self, name: str, kind: str, labels_key: Any,
                   value: float) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared no-op instance used as the default everywhere.
NULL_JOURNAL = NullJournal()


# ---------------------------------------------------------------------------
# Reading / merging
# ---------------------------------------------------------------------------
def read_journal_file(path: str) -> List[Dict[str, Any]]:
    """Parse one journal file, tolerating a torn final line.

    A process killed mid-``write`` leaves a partial last line; that is
    expected crash residue, silently skipped. A malformed line *before*
    the end is real corruption and raises ``ValueError`` — a journal
    that lies about the middle of a crawl must not pass for complete.
    """
    events: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    # A cleanly-written file ends with "\n" -> last split element "".
    while lines and lines[-1] == "":
        lines.pop()
    for index, line in enumerate(lines):
        try:
            event = json.loads(line)
        except ValueError:
            if index == len(lines) - 1:
                break  # torn tail from a crash mid-write
            raise ValueError(
                f"corrupt journal line {index + 1} in {path}: "
                f"{line[:80]!r}")
        if isinstance(event, dict):
            events.append(event)
    return events


def journal_files(directory: str) -> List[str]:
    """Every per-worker event file in *directory*, sorted by name."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        os.path.join(directory, name) for name in names
        if name.startswith("epoch-") and name.endswith(".jsonl"))


def _order_key(event: Dict[str, Any]):
    return (event.get("epoch", 0), event.get("t", 0.0),
            str(event.get("worker", "")), event.get("seq", 0))


def merge_journal(directory: str,
                  files: Optional[Iterable[str]] = None
                  ) -> List[Dict[str, Any]]:
    """Reconstruct the total event order across every worker file.

    Events sort by ``(epoch, t, worker, seq)``: epoch separates runs
    sharing a directory, the virtual timestamp orders across workers,
    and the per-writer sequence number breaks same-instant ties within
    a worker. The key is a pure function of file contents, so merging
    is deterministic no matter when or where it runs.
    """
    events: List[Dict[str, Any]] = []
    for path in (list(files) if files is not None
                 else journal_files(directory)):
        events.extend(read_journal_file(path))
    events.sort(key=_order_key)
    return events


def count_events(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Event-type histogram of a merged journal."""
    counts: Dict[str, int] = {}
    for event in events:
        name = str(event.get("type", "?"))
        counts[name] = counts.get(name, 0) + 1
    return counts


def sum_metric_deltas(events: Iterable[Dict[str, Any]]
                      ) -> Dict[Any, float]:
    """Total journalled delta per counter ``(name, labels)``.

    Only ``metric`` events for counters carry an additive ``delta``;
    gauges record absolute values and histograms record observations,
    so neither sums meaningfully here.
    """
    totals: Dict[Any, float] = {}
    for event in events:
        if event.get("type") != "metric" or event.get("kind") != "counter":
            continue
        labels = event.get("labels") or {}
        key = (event.get("name"),
               tuple(sorted((str(k), str(v))
                            for k, v in labels.items())))
        totals[key] = totals.get(key, 0.0) + float(
            event.get("delta") or 0.0)
    return totals
