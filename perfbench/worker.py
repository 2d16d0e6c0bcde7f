"""One workload in a fresh interpreter.

``run.py`` starts this file as a child process, never imports it:

* ``worker.py inputs <workload> <seed> <inputs>`` draws the workload's
  inputs from the seed and writes them to the file ``inputs``.
* ``worker.py setup <workload> <seed> <inputs> <workdir>`` does the
  workload's set-up exactly as a measured run does, and at the moment
  the first item is ready prints ``{"ready": <time.monotonic()>}`` and
  exits. The parent took the same clock just before it spawned the
  process, so the difference covers interpreter start, imports, loading
  the inputs, building the world and opening the database and queue.
* ``worker.py measure <workload> <seed> <inputs> <seconds> <trace>
  <workdir> <spans-path>`` runs as many identical passes as the first
  one says fill ``seconds`` (untraced: none started after ``seconds``)
  and prints one JSON object with every pass's raw figures. With trace
  on, the first pass is a warm-up and the rest come in whole blocks of
  four, untraced, traced, traced, untraced (see ``traced_pass``); the
  spans of the traced ones are written to ``spans-path``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Fewest passes a run makes, however long they take.
MIN_PASSES = 3
#: With trace on: a warm-up pass and one block of four.
MIN_TRACED_PASSES = 5


def planned_passes(seconds: float, first: float, trace: bool) -> int:
    """How many passes fill *seconds*, given that the first took
    *first* seconds; with trace on, whole blocks of four."""
    fit = round(seconds / first)
    if not trace:
        return max(MIN_PASSES, fit)
    return max(MIN_TRACED_PASSES, 1 + 4 * round((fit - 1) / 4))


def _setup(name: str, seed: int, inputs: str, workdir: str) -> None:
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir, inputs)
    begin, _ = workload.item_calls()

    def ready() -> None:
        print(json.dumps({"ready": time.monotonic()}), flush=True)
        # The probe's work is done; skip the crawl and interpreter
        # teardown (the parent deletes the work directory).
        os._exit(0)

    probe = Tracer()
    probe.bracket_items(begin, begin, ready, lambda: None)
    probe.install()
    workload.prepare()
    workload.run_pass(0)
    raise SystemExit(f"{name}: no item started")


def _measure(name: str, seed: int, inputs: str, seconds: float,
             trace: bool, workdir: str, spans_path: str) -> dict:
    from reference import Reference
    from workloads import WORKLOADS, ItemClock, traced_pass

    workload = WORKLOADS[name](seed, workdir, inputs)
    workload.prepare()
    tracer = workload.tracer
    reference = Reference()
    clock = ItemClock(reference)
    begin, end = workload.item_calls()
    passes = []
    planned = least = MIN_TRACED_PASSES if trace else MIN_PASSES
    index = 0
    deadline = time.monotonic() + seconds
    # A traced run finishes its last block of four.
    while index < planned and (trace or index < least
                               or time.monotonic() < deadline):
        traced = trace and traced_pass(index)
        tracer.reset()
        if traced:
            workload.wrap_layers(tracer)
        tracer.bracket_items(begin, end, clock.start, clock.stop)
        tracer.install()
        workload.traced = traced
        first = len(clock.samples)
        reference.reset()
        started = time.monotonic()
        try:
            outcome = workload.run_pass(index)
        finally:
            tracer.active = False
            tracer.uninstall()
        layers = None
        if traced:
            layers = tracer.snapshot()
            layers["counts"]["jsengine.ast_hits"] = \
                workload.ast_stats.get("hits", 0)
            layers["counts"]["jsengine.ast_misses"] = \
                workload.ast_stats.get("misses", 0)
        # The reference chunks ran inside the timed window; the pass's
        # own time excludes them.
        ref = reference.totals()
        passes.append({"index": index, "items": outcome.items,
                       "seconds": outcome.seconds - ref["ref_wall_seconds"],
                       "failed": outcome.failed, "errors": outcome.errors,
                       "disk_bytes": outcome.disk_bytes,
                       "sites": outcome.sites, "traced": traced,
                       "steal_share": workload.steal_share,
                       "cpu_seconds": (workload.cpu_seconds
                                       - ref["ref_cpu_seconds"]),
                       "latencies": clock.samples[first:],
                       "layers": layers, **ref})
        if index == 0:
            # As many identical passes as fill the run's seconds, and
            # none started after them.
            planned = planned_passes(seconds, time.monotonic() - started,
                                     trace)
        index += 1
    if trace:
        tracer.write(spans_path)
    return {"passes": passes,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _measure_serve(seed: int, seconds: float, trace: bool, workdir: str,
                   spans_path: str) -> dict:
    from serveload import Serve
    from tracer import Tracer

    tracer = Tracer()
    result = Serve(seed, workdir, ROOT).measure(seconds, trace, tracer)
    if trace:
        tracer.write(spans_path)
    return result


def main(argv: list) -> int:
    mode, name, seed, inputs = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "inputs":
        from workloads import WORKLOADS

        WORKLOADS[name](seed, "", inputs).make_inputs()
        print(json.dumps({"inputs": inputs}))
        return 0
    if mode == "setup":
        _setup(name, seed, inputs, argv[4])
        return 1
    seconds, trace, workdir, spans_path = \
        float(argv[4]), argv[5] == "1", argv[6], argv[7]
    if name == "serve":
        result = _measure_serve(seed, seconds, trace, workdir, spans_path)
    else:
        result = _measure(name, seed, inputs, seconds, trace, workdir,
                          spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
