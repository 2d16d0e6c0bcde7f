"""End-to-end benchmark of the crawl, scan and serve paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload crawl_js --seed 1 --seconds 20 --trace 0

Workloads: ``crawl_js``, ``crawl_lab``, ``scan`` and ``serve`` (see
``workloads.py`` and ``serveload.py`` for why each was chosen and
which layers it should and should not move).

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s``
(median wall time of ten fresh-process set-ups, half of them before the
measured passes and half after),
``items_per_ref_cpu_s`` (items per CPU-second of the working process
at the machine's full speed, as gauged by a reference loop run between
items, see ``reference.py``; median over the identical passes after
the first),
``peak_rss_mb`` and ``db_kb_per_site``; and beside them the plain
``items_per_cpu_s``, the wall-clock ``items_per_s`` and
``latency_p50_ms``/``p95``/``p99`` (over every item of every pass, each
percentile only where at least ten samples lie beyond it). With
``--trace 1`` a warm-up pass is followed by blocks of untraced, traced,
traced and untraced passes; the run prints the per-layer table (self
time and exact counts per item, from spans recorded around the
program's public functions), the tracing overhead (extra CPU time per
item of the traced passes, median over the blocks), and writes the
spans to ``.perfbench/spans-<workload>-<seed>.jsonl``.

Every pass's outputs are checked outside the timed window. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (failed_share is their ratio) and
``metrics``; the exit code is 0 only when every check passed.

Stability mode, ``--repeat K``, runs the workload K times with seeds
``seed .. seed+K-1`` and prints each metric's median, quartiles and
spread (quartile distance over median); ``--save PATH`` also writes
them, with the machine they ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from reference import CHUNK_SECONDS, reference_cpu

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("crawl_js", "crawl_lab", "scan", "serve")
#: Fresh-process set-ups per run; setup_s is their median. The
#: machine's speed swings by up to 1.8x over a few seconds (a fixed
#: pure-Python loop, timed in CPU time, read 43 to 79 ms from one second
#: to the next), and a set-up takes about half a second, so half of the
#: probes run before the measured passes and half after them: their
#: median then follows the machine over the whole run, not over the
#: few seconds one burst of probes would see.
SETUP_PROBES = 10
#: A child that takes longer than this is stuck.
CHILD_TIMEOUT = 150

#: (name, unit): the end-to-end metrics of the result line (--trace 0).
#: Throughput is counted per CPU-second of the working process: on a
#: shared virtual machine the hypervisor takes the CPU away for whole
#: minutes ("steal", printed as cpu_steal), which stretches wall-clock
#: figures by up to a half while CPU time stays put. The CPU-seconds
#: are further rescaled to the machine's full speed by the reference
#: loop (``reference.py``), since CPU time itself stretches by up to
#: 1.9x while neighbours crowd the caches; items_per_cpu_s, the plain
#: figure, is printed beside it.
END_TO_END = (("setup_s", "s"), ("items_per_ref_cpu_s", "1/s"),
              ("peak_rss_mb", "MiB"), ("db_kb_per_site", "KiB"))
#: Figures printed beside them but left out of the result line: the
#: wall-clock ones follow the steal, the plain CPU one the neighbours.
BESIDE = (("items_per_cpu_s", "1/s"), ("items_per_s", "1/s"),
          ("latency_p50_ms", "ms"), ("latency_p95_ms", "ms"),
          ("latency_p99_ms", "ms"))

#: Per-item self time (ms) of each layer, from its spans.
LAYER_TIMES = ("browser.window", "browser.visit",
               "openwpm.instruments.install", "jsengine.exec", "net.fetch",
               "openwpm.storage.write", "serve.rollups.fold", "sched.queue",
               "core.scan.static", "core.scan.classify", "corpus.write",
               "serve.api.respond", "serve.aggregates")
#: Exact call counts per item.
LAYER_COUNTS = ("openwpm.instruments.records", "net.fetches",
                "openwpm.storage.rows", "jsengine.ast_hits",
                "jsengine.ast_misses")


def per_layer_names() -> List[Tuple[str, str]]:
    names = [(f"{layer}_ms", "ms") for layer in LAYER_TIMES]
    names += [(count, "1/item") for count in LAYER_COUNTS]
    names += [("jsengine.ast_hit_ratio", "ratio"),
              ("sched.claims_per_done", "ratio"),
              ("serve.cache.hit_ratio", "ratio"),
              ("gc.pause_ms", "ms"), ("gc.gen2", "1/item"),
              ("trace.unattributed_share", "ratio"),
              ("trace.overhead", "ratio")]
    return names


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def _child(args: List[str]) -> subprocess.CompletedProcess:
    from serveload import program_env

    return subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                          env=program_env(ROOT), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)


def _last_json(completed: subprocess.CompletedProcess, what: str) -> Any:
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{what} failed (exit {completed.returncode}):\n"
                           + completed.stderr[-4000:])
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int, inputs: str, workdir: str,
                  probes: int) -> List[float]:
    """Spawn-to-first-item time of *probes* fresh processes."""
    times = []
    for probe in range(probes):
        probe_dir = os.path.join(workdir, f"setup-{probe}")
        os.makedirs(probe_dir)
        spawned = time.monotonic()
        ready = _last_json(
            _child(["setup", workload, str(seed), inputs, probe_dir]),
            "set-up probe")["ready"]
        times.append(ready - spawned)
        shutil.rmtree(probe_dir)
    return times


def serve_setup_seconds(serve: Any, probes: int) -> List[float]:
    """Spawn-to-first-200 time of *probes* ``repro serve`` starts."""
    from serveload import stop

    times = []
    for _ in range(probes):
        spawned = time.monotonic()
        process, port = serve.spawn()
        try:
            serve.wait_ready(port)
            times.append(time.monotonic() - spawned)
        finally:
            stop(process)
    return times


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def supported(samples: int, share: float) -> bool:
    """At least ten samples lie beyond the percentile."""
    return samples - math.ceil(share * samples) >= 10


def ref_cpu_seconds(run_pass: Dict[str, Any]) -> float:
    """A pass's CPU time at the machine's full speed."""
    return reference_cpu(run_pass["cpu_seconds"], run_pass)


def end_to_end(result: Dict[str, Any], setups: List[float]
               ) -> Dict[str, float]:
    passes = result["passes"]
    latencies = [x for p in passes for x in p["latencies"]]
    sized = [p for p in passes if p["sites"]]
    # Throughput leaves out the first pass, which warms up (first calls,
    # the server's response cache).
    warm = passes[1:] or passes
    return {
        "setup_s": statistics.median(setups),
        "items_per_ref_cpu_s": statistics.median(
            p["items"] / ref_cpu_seconds(p) for p in warm),
        "items_per_cpu_s": statistics.median(p["items"] / p["cpu_seconds"]
                                             for p in warm),
        "items_per_s": statistics.median(p["items"] / p["seconds"]
                                         for p in warm),
        "latency_p50_ms": 1000 * percentile(latencies, 0.50),
        "latency_p95_ms": 1000 * percentile(latencies, 0.95),
        "latency_p99_ms": 1000 * percentile(latencies, 0.99),
        "peak_rss_mb": result["peak_rss_mb"],
        "db_kb_per_site": statistics.median(
            p["disk_bytes"] / 1024 / p["sites"] for p in sized),
        "samples": len(latencies),
    }


def _layer_row(layers: Dict[str, Any], workload: str) -> Dict[str, float]:
    items = max(layers["items"], 1)
    self_ns = layers["self_ns"]
    counts = layers["counts"]
    row = {f"{layer}_ms": self_ns.get(layer, 0) / items / 1e6
           for layer in LAYER_TIMES}
    for count in LAYER_COUNTS:
        row[count] = counts.get(count, 0) / items

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    hits, misses = counts.get("jsengine.ast_hits", 0), \
        counts.get("jsengine.ast_misses", 0)
    row["jsengine.ast_hit_ratio"] = ratio(hits, hits + misses)
    row["sched.claims_per_done"] = ratio(counts.get("sched.claims", 0),
                                         counts.get("sched.done", 0))
    cache_hits = counts.get("serve.cache.hits", 0)
    row["serve.cache.hit_ratio"] = ratio(
        cache_hits, cache_hits + counts.get("serve.cache.misses", 0))
    row["gc.pause_ms"] = layers["gc_pause_ns"] / items / 1e6
    row["gc.gen2"] = layers["gc_gen2"] / items
    if workload == "serve":
        # Requests are timed in the client thread and answered in a
        # server thread: the unattributed share is the request time
        # outside ResultServer.respond (transport and client).
        served = self_ns.get("serve.api.respond", 0) \
            + self_ns.get("serve.aggregates", 0)
        row["trace.unattributed_share"] = 1 - ratio(served,
                                                    layers["request_ns"])
    else:
        row["trace.unattributed_share"] = ratio(layers["item_self_ns"],
                                                layers["item_ns"])
    return row


def tracing_overhead(passes: List[Dict[str, Any]]) -> List[float]:
    """Extra CPU time per item of the traced passes, one figure per
    block of four after the warm-up pass (untraced, traced, traced,
    untraced; see ``workloads.traced_pass``)."""
    def cpu_per_item(block: List[Dict[str, Any]], traced: bool) -> float:
        side = [p for p in block if p["traced"] == traced]
        return (sum(ref_cpu_seconds(p) for p in side)
                / sum(p["items"] for p in side))

    by_index = {p["index"]: p for p in passes}
    blocks = [[by_index[start + k] for k in range(4)]
              for start in range(1, len(passes) - 3, 4)]
    return [cpu_per_item(block, True) / cpu_per_item(block, False) - 1
            for block in blocks]


def per_layer(result: Dict[str, Any], workload: str
              ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Median over traced passes of each per-item figure, plus the
    first traced pass's raw counts."""
    traced = [p for p in result["passes"] if p["traced"]]
    rows = [_layer_row(p["layers"], workload) for p in traced]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.overhead"] = statistics.median(tracing_overhead(
        result["passes"]))
    first = traced[0]["layers"]
    totals = dict(first["counts"])
    totals.update(items=first["items"], **{"gc.gen2": first["gc_gen2"]})
    return metrics, totals


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_once(workload: str, seed: int, seconds: float, trace: bool,
             out=sys.stdout) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the result line."""
    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"work-{os.getpid()}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spans_path = os.path.join(scratch, f"spans-{workload}-{seed}.jsonl")
    inputs = os.path.join(workdir, "inputs.txt")
    try:
        if workload == "serve":
            from serveload import Serve

            serve = Serve(seed, workdir, ROOT)
            serve.build_db()

            def probe(count: int) -> List[float]:
                return serve_setup_seconds(serve, count)
        else:
            _last_json(_child(["inputs", workload, str(seed), inputs]),
                       "input drawing")

            def probe(count: int) -> List[float]:
                return setup_seconds(workload, seed, inputs, workdir, count)
        # Set-up is timed only in the untraced run, half of the probes
        # on each side of the measured passes.
        setups = [] if trace else probe(SETUP_PROBES // 2)
        result = _last_json(_child(
            ["measure", workload, str(seed), inputs, repr(seconds),
             "1" if trace else "0", workdir, spans_path]), "measurement")
        if not trace:
            setups += probe(SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    attempted = sum(p["items"] for p in passes)
    # A pass whose outputs fail a check counts every item as failed;
    # serve checks the whole run at once.
    failed = result.get("failed", 0) + sum(
        p["items"] if p["errors"] else p["failed"] for p in passes)
    errors = result.get("errors", []) + [e for p in passes
                                         for e in p["errors"]]
    steal = [p["steal_share"] for p in passes if "steal_share" in p]
    print(f"{workload}  seed={seed}  passes={len(passes)}  "
          f"items={attempted}  failed_share={failed / attempted:.4f}"
          + (f"  cpu_steal={statistics.median(steal):.3f}" if steal else ""),
          file=out)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=out)
    if trace:
        layers, totals = per_layer(result, workload)
        print(f"{'layer metric (per item)':34} {'value':>12}", file=out)
        for name, unit in per_layer_names():
            print(f"{name:34} {layers[name]:12.4f} {unit}", file=out)
        print("exact counts, first traced pass: " + ", ".join(
            f"{k}={v}" for k, v in sorted(totals.items())), file=out)
        print("trace.overhead per block: " + ", ".join(
            f"{x:.4f}" for x in tracing_overhead(passes)), file=out)
        print(f"spans: {os.path.relpath(spans_path, ROOT)}", file=out)
        reported = {name: {"value": layers[name], "unit": unit}
                    for name, unit in per_layer_names()}
    else:
        metrics = end_to_end(result, setups)
        for name, unit in END_TO_END:
            print(f"{name:18} {metrics[name]:12.4f} {unit}", file=out)
        print("not in the result line:", file=out)
        for name, unit in BESIDE:
            share = float(name[len("latency_p"):-len("_ms")]) / 100 \
                if name.startswith("latency_p") else 0.0
            if supported(metrics["samples"], share):
                print(f"{name:18} {metrics[name]:12.4f} {unit}", file=out)
            else:
                print(f"{name:18} {'-':>12} (fewer than ten of "
                      f"{metrics['samples']} samples beyond it)", file=out)
        ref_ms = [1000 * p["ref_cpu_seconds"] / max(p["ref_chunks"], 1)
                  for p in passes]
        print(f"reference chunk: {statistics.median(ref_ms):.3f} ms CPU "
              f"(median over passes; {min(ref_ms):.3f} to "
              f"{max(ref_ms):.3f}; full speed {1000 * CHUNK_SECONDS} ms)",
              file=out)
        print(f"latency samples: {metrics['samples']}; set-ups: "
              + ", ".join(f"{s:.3f}" for s in setups), file=out)
        if "cache" in result:
            hits, misses = result["cache"]["hits"], result["cache"]["misses"]
            print(f"response cache: {hits} hits, {misses} misses, hit "
                  f"ratio {hits / max(hits + misses, 1):.4f}", file=out)
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END}
    return {"correct": not errors and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": reported}


# ----------------------------------------------------------------------
# Stability mode
# ----------------------------------------------------------------------
def filesystem_of(path: str) -> str:
    """File-system type of the mount holding *path* (from /proc/mounts)."""
    best, kind = "", "unknown"
    real = os.path.realpath(path)
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (real == mount or real.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def stability(workload: str, seed: int, seconds: float, trace: bool,
              repeat: int, save: Optional[str]) -> int:
    runs = []
    for offset in range(repeat):
        line = run_once(workload, seed + offset, seconds, trace,
                        out=sys.stderr)
        print(json.dumps(line), file=sys.stderr, flush=True)
        runs.append({"seed": seed + offset, **line})
    summary = {}
    print(f"{workload}: {repeat} runs, seeds {seed}..{seed + repeat - 1}")
    print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8}")
    for name, entry in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) \
            if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": entry["unit"]}
        print(f"{name:30} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f}")
    correct = all(run["correct"] for run in runs)
    if save:
        machine = {"nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "platform": platform.platform(),
                   "tmp_filesystem": filesystem_of(ROOT)}
        with open(save, "w") as handle:
            json.dump({"workload": workload, "seconds": seconds,
                       "trace": trace, "machine": machine,
                       "summary": summary, "runs": runs}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=None, metavar="K",
                        help="stability mode: K runs on consecutive seeds")
    parser.add_argument("--save", default=None, metavar="PATH",
                        help="stability mode: write the summary as JSON")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    if args.repeat is not None:
        return stability(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.repeat, args.save)
    line = run_once(args.workload, args.seed, args.seconds,
                    bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
