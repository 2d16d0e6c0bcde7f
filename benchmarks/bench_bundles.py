"""Execution bundles: replay speed + record overhead guards.

Two performance properties the bundle subsystem promises:

* **Replay is how you re-check verdicts.** Re-running the detector
  pipeline over an archived bundle (``repro scan --replay DIR
  --offline``) must beat the equivalent live scan — no synthetic-web
  build, no servers, no network layer, no browser re-execution — by at
  least 5x, or re-analysis loses its reason to exist. Full
  re-execution replay (same browser pipeline, archived responses) is
  reported alongside for context; it trades that speed for maximum
  fidelity.
* **Recording must be close to free.** ``--record`` rides along on
  real measurement crawls, so its CPU cost on top of a JS-instrumented
  synthetic-web crawl has to stay under 5% — the flight recorder's
  bar, measured as the CPU inside the bundle entry points of one
  recorded crawl (see :func:`measure_record_overhead`).
"""

import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from conftest import BENCH_SEED, report

#: Scan scale for the replay-speedup measurement. Modest on purpose:
#: the speedup is a per-site ratio, not an aggregate that needs the
#: full bench world.
BUNDLE_SITES = int(os.environ.get("REPRO_BENCH_BUNDLE_SITES", "80"))
REPLAY_SPEEDUP_FLOOR = 5.0
RECORD_OVERHEAD_LIMIT_PCT = 5.0

#: Measurement worker for the record-overhead guard: one fresh
#: interpreter per sample, a discarded warm-up crawl, then one recorded
#: crawl with every bundle entry point timed. argv: site_count, seed,
#: crash_p. Prints the recorded crawl's CPU seconds and the CPU
#: seconds spent inside the entry points.
_RECORD_WORKER = r'''
import gc, json, shutil, sys, tempfile, time
from repro.bundles import BundleCapture, BundleWriter
from repro.obs.runner import run_telemetry_crawl
from repro.obs.telemetry import Telemetry

sites, seed, crash_p = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
inside = [0.0]

def timed(fn):
    def wrapper(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            inside[0] += time.process_time() - start
    return wrapper

def crawl():
    workdir = tempfile.mkdtemp(prefix="bench-bundle-")
    gc.collect()
    start = time.process_time()
    result = run_telemetry_crawl(site_count=sites, seed=seed,
                                 crash_probability=crash_p,
                                 web="tranco", js_instrument=True,
                                 telemetry=Telemetry(),
                                 record_dir=workdir + "/b")
    elapsed = time.process_time() - start
    result.close()
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed

crawl()  # warm-up, discarded
for cls, names in ((BundleCapture, ("__init__", "begin_visit", "on_fetch",
                                    "end_visit", "classify", "record")),
                   (BundleWriter, ("__init__", "write_site", "finalize"))):
    for name in names:
        setattr(cls, name, timed(getattr(cls, name)))
inside[0] = 0.0
total = crawl()
print(json.dumps({"crawl": total, "inside": inside[0]}))
'''


def measure_record_overhead(site_count: int = 120,
                            samples: int = 3,
                            crash_probability: float = 0.05) -> dict:
    """CPU cost of ``--record`` on a JS-instrumented tranco crawl.

    Measured inside the recorded crawl itself: the CPU time spent in
    the bundle entry points (every :class:`BundleCapture` method and
    :class:`BundleWriter`'s constructor, ``write_site`` and
    ``finalize``) over the CPU time of the rest of the same crawl. A
    pair of separate crawls (with and without ``--record``) cannot
    resolve a few percent: identical crawls vary by more than that
    from run to run, mostly in garbage-collection passes, so the
    difference of two runs is noise. Both numbers here come from one
    run, so a slow or fast machine moves them together. What this
    leaves out is the recording's indirect cost, e.g. the collections
    its allocations bring forward. The median of ``samples``
    fresh-interpreter runs is reported.
    """
    import repro

    env = dict(os.environ)
    src_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _RECORD_WORKER, str(site_count),
             str(BENCH_SEED), str(crash_probability)],
            capture_output=True, text=True, env=env, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append((sample["inside"] / (sample["crawl"] - sample["inside"])
                     * 100.0, sample))
    runs.sort(key=lambda run: run[0])
    overhead, median = runs[len(runs) // 2]
    return {"sites": site_count, "rounds": samples,
            "recorded_seconds": median["crawl"],
            "inside_seconds": median["inside"],
            "baseline_seconds": median["crawl"] - median["inside"],
            "overhead_pct": overhead}


def measure_replay_speedup(site_count: int = BUNDLE_SITES,
                           rounds: int = 3) -> dict:
    """Live scan vs full replay vs offline re-analysis, CPU seconds.

    The live timing includes ``build_world`` — replay's pitch is "no
    live synthetic web", so standing the web up is part of what it
    saves. Rounds are interleaved with a per-mode minimum (co-tenant
    noise only ever adds time). The offline timing is additionally
    split into cache-hit (unchanged pattern set: archived analysis
    verdicts replayed) and cold-cache (what an *edited* pattern set
    pays: every stored source re-scanned) variants.
    """
    from repro.bundles import Bundle, BundleWriter, ReplayWeb
    from repro.bundles.reanalyze import reanalyze_bundle
    from repro.core.scan import ScanPipeline
    from repro.web import build_world

    workdir = tempfile.mkdtemp(prefix="bench-bundles-")
    bundle_dir = os.path.join(workdir, "rec")

    def timed_live(record=None):
        gc.collect()
        start = time.process_time()
        web = build_world(site_count=site_count, seed=BENCH_SEED)
        recorder = None
        if record is not None:
            recorder = BundleWriter(
                record, kind="scan",
                sites=[config.domain for config in web.configs])
        pipeline = ScanPipeline(web, recorder=recorder)
        pipeline.run(visit_subpages=True)
        if recorder is not None:
            recorder.finalize(complete=True)
        return time.process_time() - start

    def timed_replay():
        gc.collect()
        start = time.process_time()
        bundle = Bundle(bundle_dir)
        pipeline = ScanPipeline(ReplayWeb(bundle))
        pipeline.run(visit_subpages=True)
        elapsed = time.process_time() - start
        bundle.close()
        return elapsed

    def timed_offline(path):
        gc.collect()
        start = time.process_time()
        bundle = Bundle(path)
        reanalyze_bundle(bundle)
        elapsed = time.process_time() - start
        bundle.close()
        return elapsed

    try:
        timed_live()  # warm-up, discarded
        timed_live(record=bundle_dir)  # the archive every mode replays
        # Cold-cache copy: wiping the archived analysis cache is what
        # a changed pattern-set version amounts to (the cache key
        # includes it), so this prices a real re-analysis.
        import sqlite3

        cold_dir = os.path.join(workdir, "cold")
        shutil.copytree(bundle_dir, cold_dir)
        conn = sqlite3.connect(os.path.join(cold_dir, "store.corpus"))
        conn.execute("DELETE FROM analysis_cache")
        conn.commit()
        conn.close()

        live = replay = offline = cold = float("inf")
        for _ in range(rounds):
            live = min(live, timed_live())
            replay = min(replay, timed_replay())
            offline = min(offline, timed_offline(bundle_dir))
            cold_copy = os.path.join(workdir, "cold-run")
            shutil.rmtree(cold_copy, ignore_errors=True)
            shutil.copytree(cold_dir, cold_copy)
            cold = min(cold, timed_offline(cold_copy))
        bundle = Bundle(bundle_dir)
        stats = bundle.stats()
        bundle.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "sites": site_count, "rounds": rounds,
        "live_seconds": live, "replay_seconds": replay,
        "offline_seconds": offline, "offline_cold_seconds": cold,
        "replay_speedup": live / replay if replay else 0.0,
        "offline_speedup": live / offline if offline else 0.0,
        "offline_cold_speedup": live / cold if cold else 0.0,
        "bundle_stored_bytes": stats["stored_bytes"],
        "bundle_raw_bytes": stats["raw_bytes"],
        "bundle_visits": stats["visits"],
    }


def test_benchmark_replay_speedup(benchmark):
    result = benchmark.pedantic(
        lambda: measure_replay_speedup(site_count=BUNDLE_SITES),
        rounds=1, iterations=1)

    saved = 1.0 - (result["bundle_stored_bytes"]
                   / max(1, result["bundle_raw_bytes"]))
    lines = [
        f"(re-analysing an archived bundle must beat the equivalent "
        f"live {result['sites']}-site scan by "
        f">={REPLAY_SPEEDUP_FLOOR:.0f}x)",
        "",
        f"| mode | CPU seconds (best of {result['rounds']}) | speedup |",
        "|---|---|---|",
        f"| live scan (world + servers + browser) "
        f"| {result['live_seconds']:.3f} | 1.0x |",
        f"| full replay (browser re-executed from archive) "
        f"| {result['replay_seconds']:.3f} "
        f"| {result['replay_speedup']:.2f}x |",
        f"| offline re-analysis, unchanged patterns (--offline) "
        f"| {result['offline_seconds']:.3f} "
        f"| {result['offline_speedup']:.1f}x |",
        f"| offline re-analysis, cold analysis cache "
        f"| {result['offline_cold_seconds']:.3f} "
        f"| {result['offline_cold_speedup']:.1f}x |",
        "",
        f"bundle: {result['bundle_visits']} visits, "
        f"{result['bundle_stored_bytes']:,} bytes stored "
        f"({saved:.0%} saved by dedup + compression at the default "
        "REPRO_CORPUS_ZLEVEL=6; level 1 records ~3x faster per "
        "compressed byte, level 9 shaves a few % more space).",
    ]
    report("bundles", "Execution bundles - replay speed and "
                      "record overhead", lines)

    assert result["offline_speedup"] >= REPLAY_SPEEDUP_FLOOR, result
    assert result["offline_cold_speedup"] >= REPLAY_SPEEDUP_FLOOR, \
        result


def test_benchmark_record_overhead(benchmark):
    result = benchmark.pedantic(
        lambda: measure_record_overhead(site_count=120),
        rounds=1, iterations=1)

    lines = [
        "(--record must cost <5% CPU on top of a JS-instrumented",
        "120-site synthetic-web crawl, measured inside the recorded",
        "crawl: CPU in the bundle entry points over the rest)",
        "",
        f"| part of the recorded crawl | CPU seconds (median of "
        f"{result['rounds']} subprocess runs) |",
        "|---|---|",
        f"| crawl, bundle entry points excluded "
        f"| {result['baseline_seconds']:.3f} |",
        f"| bundle entry points | {result['inside_seconds']:.3f} |",
        f"| overhead | {result['overhead_pct']:.2f}% |",
    ]
    report("bundles_record_overhead",
           "Execution bundles - record CPU overhead", lines)

    assert result["overhead_pct"] < RECORD_OVERHEAD_LIMIT_PCT, result
