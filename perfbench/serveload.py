"""The ``serve`` workload: closed-loop queries against ``repro serve``."""

from __future__ import annotations

import http.client
import os
import random
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from reference import Reference
from tracer import Tracer
from workloads import (
    ItemClock,
    PassResult,
    cpu_ticks,
    steal_share,
    traced_pass,
)

# The traffic mix. No trace of real queries against a results server
# exists to take it from, so these three numbers are assumptions, picked
# for what the workload has to show; the run prints the response cache's
# measured hit ratio beside them (on this mix, about nine in ten).
#: Sites in the served crawl database: half again the response cache's
#: 512 entries, so that site cards cannot all stay cached.
SITES = 800
#: Share of requests that go to the hot aggregate endpoints (assumed: a
#: dashboard polling the totals next to people looking up single sites).
#: These few URLs are cache hits after their first answer.
HOT_SHARE = 0.3
#: Zipf exponent of site-card popularity: 0.8, inside the 0.64-0.83 that
#: Breslau et al. measured for web requests ("Web Caching and Zipf-like
#: Distributions", INFOCOM 1999). The tail beyond the cache's reach is
#: what makes misses.
ZIPF = 0.8
#: Length of one measured segment; items_per_s is the median over them.
SEGMENT_SECONDS = 1.0
#: Every this many requests, one answer is kept for the batch-twin check
#: (besides the first answer of each hot endpoint).
SAMPLE_EVERY = 101
#: Loopback source addresses the client's connections rotate over.
SOURCE_ADDRESSES = 500


def program_env(root: str) -> Dict[str, str]:
    """The environment that runs the program from ``<root>/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Serve:
    """serve: queries against ``repro serve``.

    Why: the only workload that reads storage and rollups back and the
    only one that runs ``serve.*``. The crawl database is built from the
    seed by the program under test (``repro crawl`` over seeded lab URLs)
    before set-up is timed. One client connection at a time (closed loop:
    the next request goes out when the previous answer is read) asks for
    a mix of hot aggregate endpoints and site cards. The cards span more
    distinct sites than the 512-entry response cache holds, and their
    popularity is Zipf-like, so the mix has both cache hits and misses
    (SITES, HOT_SHARE and ZIPF above are assumptions; the run prints
    the hit ratio they give).
    Should move: serve.api.respond_ms, serve.aggregates_ms and
    serve.cache.hit_ratio show in throughput (requests per CPU-second
    of the server process, and per wall second) and the tail latency.
    Should stay flat: no page is visited, so browser, instrument and
    JS-engine changes should not show here.
    """

    name = "serve"

    def __init__(self, seed: int, workdir: str, root: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.db = os.path.join(workdir, "serve.sqlite")
        self.url_file = os.path.join(workdir, "serve-sites.txt")
        self._source = 0
        self._sent = 0
        #: Hot endpoints whose answer is already kept for the check.
        self._sampled: set = set()
        rng = random.Random(seed)
        self.urls = [f"https://lab.test/{rng.getrandbits(48):012x}/s{i:05d}"
                     for i in range(SITES)]

    # -- inputs ---------------------------------------------------------
    def build_db(self) -> None:
        """Crawl the seeded sites with the program's own CLI."""
        with open(self.url_file, "w") as handle:
            handle.write("\n".join(self.urls) + "\n")
        subprocess.run(
            [sys.executable, "-m", "repro", "crawl", "--sites",
             self.url_file, "--seed", str(self.seed), "--db", self.db,
             "--crash-probability", "0", "--workers", "2", "--json"],
            env=program_env(self.root), cwd=self.root, check=True,
            stdout=subprocess.DEVNULL, timeout=120)

    def requests(self) -> Iterator[str]:
        from urllib.parse import quote

        from repro.serve.aggregates import AGGREGATE_ENDPOINTS

        rng = random.Random(self.seed ^ 0x5E7E)
        hot = [f"/aggregates/{name}" for name in AGGREGATE_ENDPOINTS]
        hot.append("/sites")
        order = list(self.urls)
        rng.shuffle(order)
        cards = [f"/site?url={quote(url, safe='')}" for url in order]
        weights = [1.0 / (rank + 1) ** ZIPF for rank in range(len(cards))]
        while True:
            if rng.random() < HOT_SHARE:
                yield rng.choice(hot)
            else:
                yield rng.choices(cards, weights=weights)[0]

    # -- server processes -------------------------------------------------
    def spawn(self) -> Tuple[subprocess.Popen, int]:
        """Start ``repro serve`` on an ephemeral port."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.db, "--port", "0"],
            env=program_env(self.root), cwd=self.root,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = process.stdout.readline() if process.stdout else ""
        if not line.startswith("serving "):
            stop(process)
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return process, int(line.rsplit(":", 1)[1])

    # -- client -----------------------------------------------------------
    def get(self, port: int, path: str) -> Tuple[int, bytes]:
        """One request on a fresh connection from the next source
        address.

        The server speaks HTTP/1.0 and closes every connection, leaving
        it in TIME_WAIT for a minute. From one source address, tens of
        thousands of those crowd the client's port choice and slow the
        connects down as a run goes on (and the next run too). Spread
        over many loopback addresses, no address pair gathers more than
        a few hundred.
        """
        self._source = (self._source + 1) % SOURCE_ADDRESSES
        source = (f"127.0.{1 + self._source // 250}."
                  f"{1 + self._source % 250}", 0)
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30,
                                                source_address=source)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def wait_ready(self, port: int, deadline: float = 60.0) -> None:
        """Poll ``/healthz`` until it answers 200."""
        give_up = time.monotonic() + deadline
        while True:
            try:
                if self.get(port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > give_up:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.002)

    def cache_counts(self, port: int) -> Dict[str, int]:
        """The server's response-cache hits and misses so far, from
        ``/metrics``."""
        status, body = self.get(port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        counts = {"hits": 0, "misses": 0}
        for line in body.decode().splitlines():
            fields = line.split()
            for key in counts:
                if not line.startswith("#") and \
                        fields[0].endswith(f"serve_cache_{key}_total"):
                    counts[key] += int(float(fields[-1]))
        return counts

    def segment(self, port: int, seconds: float) -> PassResult:
        """Closed loop for *seconds*; one request per connection (the
        server speaks HTTP/1.0)."""
        count = 0
        start = time.perf_counter()
        end = start + seconds
        while True:
            path = next(self._paths)
            self.clock.start()
            status, body = self.get(port, path)
            self.clock.stop()
            self.statuses[status] = self.statuses.get(status, 0) + 1
            count += 1
            self._sent += 1
            if self._sent % SAMPLE_EVERY == 0 or (
                    not path.startswith("/site?")
                    and path not in self._sampled):
                self._sampled.add(path)
                self.samples.append((path, body))
            if time.perf_counter() >= end:
                break
        return PassResult(items=count,
                          seconds=time.perf_counter() - start)

    def _record(self, outcome: PassResult, first: int, cpu_seconds: float,
                traced: bool = False,
                layers: Optional[Dict[str, Any]] = None) -> None:
        """Keep one segment's figures; *cpu_seconds* excludes the
        reference chunks the client ran in it, the wall time is taken
        without them here."""
        ref = self.reference.totals()
        self.passes.append({
            "index": len(self.passes), "items": outcome.items,
            "seconds": outcome.seconds - ref["ref_wall_seconds"],
            "cpu_seconds": cpu_seconds,
            "failed": 0, "errors": [], "disk_bytes": 0, "sites": 0,
            "traced": traced, "latencies": self.clock.samples[first:],
            "layers": layers, **ref})

    # -- the measured run ---------------------------------------------------
    def measure(self, seconds: float, trace: bool,
                tracer: Tracer) -> Dict[str, Any]:
        # The client gauges the machine's speed between requests; the
        # server's CPU time is rescaled by it (the server is the
        # program under test and runs unmodified). Client and server
        # share one CPU: a closed loop over one connection has no
        # parallelism to lose, and the reference loop then gauges the
        # CPU the server runs on. Spread over two CPUs of a virtual
        # machine, every request paid a cross-CPU wake-up whose cost
        # swung with the host: ten such runs served 220 to 520 requests
        # a second, and the reference loop on the client's CPU followed
        # about half of the swing in the server's CPU time per request.
        self.reference = Reference()
        self.clock = ItemClock(self.reference)
        core = min(os.sched_getaffinity(0))
        pin(os.getpid(), core)
        self.statuses: Dict[int, int] = {}
        self.samples: List[Tuple[str, bytes]] = []
        self.passes: List[Dict[str, Any]] = []
        self._paths = self.requests()
        result: Dict[str, Any] = {}
        if trace:
            self._measure_in_process(seconds, tracer)
        else:
            process, port = self.spawn()
            try:
                pin(process.pid, core)
                self.wait_ready(port)
                before = self.cache_counts(port)
                deadline = time.perf_counter() + seconds
                while time.perf_counter() < deadline:
                    first = len(self.clock.samples)
                    self.reference.reset()
                    cpu = process_cpu_seconds(process.pid)
                    ticks = cpu_ticks()
                    outcome = self.segment(port, SEGMENT_SECONDS)
                    self._record(outcome, first,
                                 process_cpu_seconds(process.pid) - cpu)
                    self.passes[-1]["steal_share"] = steal_share(ticks)
                result["peak_rss_mb"] = peak_rss_mb(process.pid)
                result["cache"] = {
                    key: count - before[key]
                    for key, count in self.cache_counts(port).items()}
            finally:
                stop(process)
        errors, mismatched = self.check()
        self.passes[0]["disk_bytes"] = os.path.getsize(self.db)
        self.passes[0]["sites"] = SITES
        result.update(passes=self.passes, errors=errors,
                      failed=mismatched + sum(
                          n for status, n in self.statuses.items()
                          if status != 200))
        return result

    def _measure_in_process(self, seconds: float, tracer: Tracer) -> None:
        """The traced run: the server in this process, so its layers can
        be wrapped. Segments follow ``traced_pass``: a warm-up, then
        blocks of untraced, traced, traced, untraced, as many whole
        blocks as fill *seconds*."""
        from repro.serve import aggregates
        from repro.serve.api import ResultServer

        server = ResultServer(self.db)
        port = server.start()
        try:
            self.wait_ready(port)
            deadline = time.perf_counter() + seconds
            index = 0
            while index < 5 or (index - 1) % 4 or \
                    time.perf_counter() < deadline:
                traced = traced_pass(index)
                tracer.reset()
                if traced:
                    tracer.wrap(ResultServer, "respond", "serve.api.respond")
                    # The router calls these by name and the aggregate
                    # builders through their registry.
                    for name in ("sites_payload", "site_payload"):
                        tracer.wrap_function(aggregates, name,
                                             "serve.aggregates")
                    tracer.replace_in_dict(aggregates.AGGREGATE_BUILDERS,
                                           "serve.aggregates")
                    # Each answered request is one item on the server
                    # side, so its spans share an item id.
                    call = (ResultServer, "respond")
                    tracer.bracket_items(call, call, _nothing, _nothing)
                tracer.install()
                cache_before = server.cache.stats()
                tracer.active = traced
                first = len(self.clock.samples)
                self.reference.reset()
                cpu = time.process_time()
                outcome = self.segment(port, SEGMENT_SECONDS)
                # Client and server share this process.
                cpu = time.process_time() - cpu \
                    - self.reference.cpu_seconds
                tracer.active = False
                tracer.uninstall()
                layers = None
                if traced:
                    layers = tracer.snapshot()
                    layers["items"] = outcome.items
                    after = server.cache.stats()
                    for key in ("hits", "misses"):
                        layers["counts"][f"serve.cache.{key}"] = \
                            after[key] - cache_before[key]
                    layers["request_ns"] = int(
                        sum(self.clock.samples[first:]) * 1e9)
                self._record(outcome, first, cpu, traced, layers)
                index += 1
        finally:
            server.close()

    def check(self) -> Tuple[List[str], int]:
        """Every answer is 200; sampled answers equal their batch twin.
        Returns the errors and the number of sampled answers that
        differ."""
        import sqlite3
        from urllib.parse import parse_qs, urlsplit

        from repro.serve import aggregates

        errors = []
        mismatched = 0
        bad = {status: n for status, n in self.statuses.items()
               if status != 200}
        if bad:
            errors.append(f"non-200 answers: {bad}")
        connection = sqlite3.connect(f"file:{self.db}?mode=ro", uri=True)
        try:
            seen = set()
            for path, body in self.samples:
                if path in seen:
                    continue
                seen.add(path)
                split = urlsplit(path)
                if split.path == "/site":
                    url = parse_qs(split.query)["url"][0]
                    twin = aggregates.site_payload(connection, url,
                                                   batch=True)
                elif split.path == "/sites":
                    twin = aggregates.sites_payload(connection, batch=True)
                else:
                    name = split.path.rsplit("/", 1)[1]
                    twin = aggregates.AGGREGATE_BUILDERS[name](
                        connection, batch=True)
                if aggregates.encode_payload(twin) != body:
                    mismatched += 1
                    errors.append(f"{path}: served bytes differ from the "
                                  "batch twin")
        finally:
            connection.close()
        return errors, mismatched


def _nothing() -> None:
    pass


def pin(pid: int, cpu: int) -> None:
    """Keep every thread of process *pid*, and the threads it starts
    from now on, on *cpu*."""
    for thread in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(thread), {cpu})


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process and its finished
    threads, from ``/proc/<pid>/stat`` (clock-tick resolution)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def stop(process: subprocess.Popen) -> None:
    """Terminate a child and wait until it has ended."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()
