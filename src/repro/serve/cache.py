"""LRU/TTL response cache, invalidated by rollup generations.

The cache sits between the HTTP handlers and the aggregate builders.
Its correctness contract (pinned by Hypothesis property tests):

* **Generation safety** — an entry is only ever returned for the
  generation it was stored under. The caller passes the *current*
  rollup generation on every lookup; an entry keyed under an older
  generation is a miss (and is dropped), so a served answer can never
  be older than the aggregate state backing it.
* **Capacity** — at most ``capacity`` entries live at once; inserting
  into a full cache evicts the least-recently-used entry.
* **TTL monotonicity** — an entry expires ``ttl`` seconds after it was
  stored (by the injected clock, so tests drive expiry with the
  virtual clock); once expired it stays expired, clocks being monotone.

The TTL is a second line of defence, not the invalidation mechanism:
generation bumps already invalidate precisely. It bounds staleness of
anything that slips past generation keying (e.g. a payload that reads
raw tables, like the corpus ``stored`` block) without a write bump.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Tuple


class _MonotonicClock:
    """Default wall clock (`time.monotonic` behind the clock API)."""

    def now(self) -> float:
        return time.monotonic()


@dataclass
class CachedResponse:
    """One rendered response: body bytes plus transport metadata."""

    body: bytes
    status: int = 200
    content_type: str = "application/json"
    generation: int = 0
    stored_at: float = 0.0
    #: Entity tag for conditional requests; empty means "send none".
    #: Derived from ``generation`` by the server, never stored here by
    #: the cache itself (a cached body revalidated under a new lookup
    #: gets the tag re-stamped by the caller).
    etag: str = ""


class ResponseCache:
    """Thread-safe LRU with per-entry TTL and generation keying."""

    def __init__(self, capacity: int = 512, ttl: float = 30.0,
                 clock: Any = None) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if ttl <= 0:
            raise ValueError("ttl must be > 0")
        self.capacity = capacity
        self.ttl = ttl
        self.clock = clock if clock is not None else _MonotonicClock()
        self._entries: "OrderedDict[str, CachedResponse]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str, generation: int
            ) -> Optional[CachedResponse]:
        """The entry for *key* iff stored under *generation* and young
        enough; stale entries (either way) are evicted on sight."""
        now = self.clock.now()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.generation != generation:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            if now - entry.stored_at >= self.ttl:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, generation: int, body: bytes,
            status: int = 200,
            content_type: str = "application/json"
            ) -> CachedResponse:
        entry = CachedResponse(body=body, status=status,
                               content_type=content_type,
                               generation=generation,
                               stored_at=self.clock.now())
        with self._lock:
            if self.capacity == 0:
                return entry
            self._entries.pop(key, None)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def keys(self) -> Tuple[str, ...]:
        """Current keys, least-recently-used first (for tests)."""
        with self._lock:
            return tuple(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {"size": len(self._entries),
                    "capacity": self.capacity,
                    "ttl": self.ttl,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "expirations": self.expirations,
                    "invalidations": self.invalidations}
