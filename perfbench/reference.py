"""A fixed reference loop, run alongside the program to gauge the
machine's speed.

On a shared virtual machine the CPU's speed swings by up to 1.9x
within seconds, most likely as neighbours contend for its caches and
memory bandwidth: on a 2-core VM, a fixed loop timed in CPU time read
31 to 62 ms over 40 seconds, in spells of one to a few seconds. The
program's CPU time per item follows those swings, so from one run to
the next CPU time alone measures the neighbours as much as the
program. In eight back-to-back runs of the same crawl_js passes, items
per CPU-second drifted from 20 to 14 (quartile spread 17% of the
median), while the same CPU time expressed in units of this loop's CPU
time, sampled between items over the same seconds, held within a 3%
spread, and two runs of one seed read alike to within 1%.

The loop never changes and touches nothing of the program's: one part
is dict lookups and string work on a small key set (cache-resident,
like the interpreter's own dispatch), the other sums floats in a fixed
random order over about 2 MiB (cache misses, like the collector's
traversals). It creates no containers, so it never triggers a
collection of the program's heap, and its own data is a handful of
long-lived objects the collector tracks (a few lists, one dict).
A chunk runs right after an item, so what the item left in the caches
sways it a little: a program change that touches much more or less
memory per item also moves the gauge slightly, in the direction that
hides part of the change.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict

#: Run a chunk at most this often (wall seconds), after an item ends.
INTERVAL = 0.05
#: CPU seconds one chunk takes when the machine runs at full speed
#: (about what it takes in the fast spells of a 2-core VM with Python
#: 3.11, where the median over a run reads 2.2 to 2.9 ms). Only a
#: scale: throughput is reported per CPU-second at this speed.
CHUNK_SECONDS = 0.002
_KEYS = 1024
_KEY_ROUNDS = 4
_FLOATS = 1 << 16
_FLOAT_READS = 5000


class Reference:
    """Chunks of the reference loop, timed in the calling thread's CPU
    time, with totals since the last :meth:`reset`."""

    def __init__(self) -> None:
        self._keys = [f"key-{i:05d}" for i in range(_KEYS)] * _KEY_ROUNDS
        self._map = dict.fromkeys(self._keys, 1)
        self._floats = [float(i) for i in range(_FLOATS)]
        order = list(range(_FLOATS))
        random.Random(5).shuffle(order)
        self._order = order[:_FLOAT_READS]
        self._busy = threading.Lock()
        self._due = 0.0
        self.reset()

    def reset(self) -> None:
        self.cpu_seconds = 0.0
        self.wall_seconds = 0.0
        self.chunks = 0

    def totals(self) -> Dict[str, float]:
        return {"ref_cpu_seconds": self.cpu_seconds,
                "ref_wall_seconds": self.wall_seconds,
                "ref_chunks": self.chunks}

    def chunk(self) -> float:
        total = 0
        lookup = self._map
        for key in self._keys:
            total += lookup[key] + len(key.upper())
        floats = self._floats
        for index in self._order:
            total += floats[index]
        return total

    def maybe_run(self) -> None:
        """Run one chunk if INTERVAL has passed since the last one (and
        no other thread is running one)."""
        if time.perf_counter() < self._due \
                or not self._busy.acquire(blocking=False):
            return
        try:
            wall = time.perf_counter()
            cpu = time.thread_time()
            self.chunk()
            self.cpu_seconds += time.thread_time() - cpu
            end = time.perf_counter()
            self.wall_seconds += end - wall
            self.chunks += 1
            self._due = end + INTERVAL
        finally:
            self._busy.release()


def reference_cpu(cpu_seconds: float, ref: Dict[str, float]) -> float:
    """The program's *cpu_seconds* (reference chunks excluded) rescaled
    to the machine's full speed: the time they would have taken had
    each chunk run among them taken CHUNK_SECONDS."""
    per_chunk = ref["ref_cpu_seconds"] / max(ref["ref_chunks"], 1)
    return cpu_seconds * CHUNK_SECONDS / per_chunk
