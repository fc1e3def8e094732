"""Content-addressed plan cache: compile once, serve many.

Every simulation request needs a compiled artefact — an
:class:`~repro.core.batch.BatchProgram`, generated source, a solver-bound
plan — derived deterministically from the request's *content*.  The
:class:`PlanCache` keys those artefacts by
:meth:`repro.core.plan.ExecutionPlan.fingerprint`: a stable hash over the
plan's node/edge/guard tables plus caller extras (solver binding, step
size, record list, sweep paths).  Two structurally identical diagrams —
even built independently by different requests — collide on the same key,
so a warm service compiles each distinct model exactly once no matter how
many users submit it.

Properties:

* **Thread-safe, compile-once**: concurrent :meth:`get_or_compile` calls
  for the same missing key run the factory exactly once; the other
  callers block on the in-flight compile and share its result (or its
  exception).  Distinct keys compile concurrently — the cache lock is
  never held while a factory runs.
* **LRU-bounded**: ``capacity`` caps resident entries; least-recently
  *used* entries are evicted, with an eviction counter for dashboards.
* **Invalidation by key mismatch**: fingerprints hash parameter values
  and structure, so a mutated diagram simply stops matching its old
  entry (which ages out of the LRU).  Explicit :meth:`invalidate` /
  :meth:`clear` exist for callers that know a dependency changed outside
  the fingerprint's view (e.g. a re-registered solver factory).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from repro.service.telemetry import MetricsRegistry


class CacheError(Exception):
    """Raised on cache misconfiguration."""


class _Inflight:
    """Bookkeeping for one in-progress compile."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


class PlanCache:
    """A thread-safe, LRU-bounded, content-addressed artefact cache."""

    def __init__(
        self,
        capacity: int = 128,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise CacheError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._inflight: Dict[str, _Inflight] = {}
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.evictions = 0
        self.invalidations = 0
        self._metrics = metrics

    # ------------------------------------------------------------------
    def get_or_compile(self, key: str, factory: Callable[[], Any]) -> Any:
        """Return the cached artefact for ``key``, compiling at most once.

        On a miss, the first caller runs ``factory()`` outside the cache
        lock; concurrent callers for the same key wait and share the
        outcome.  A factory exception is propagated to *every* waiting
        caller and nothing is cached, so a transient compile failure can
        be retried.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self._count("cache.hits")
                    return self._entries[key]
                self.misses += 1
                self._count("cache.misses")
                inflight = self._inflight.get(key)
                if inflight is None:
                    inflight = self._inflight[key] = _Inflight()
                    owner = True
                else:
                    owner = False
            if owner:
                try:
                    value = factory()
                except BaseException as exc:
                    with self._lock:
                        inflight.error = exc
                        self._inflight.pop(key, None)
                    inflight.event.set()
                    raise
                with self._lock:
                    self.compiles += 1
                    self._count("cache.compiles")
                    self._insert(key, value)
                    inflight.value = value
                    self._inflight.pop(key, None)
                inflight.event.set()
                return value
            inflight.event.wait()
            if inflight.error is not None:
                raise inflight.error
            # the owner may have been invalidated between insert and our
            # wake-up; trust its value only if it produced one
            return inflight.value

    def get(self, key: str) -> Optional[Any]:
        """Peek without compiling (counts as hit/miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("cache.hits")
                return self._entries[key]
            self.misses += 1
            self._count("cache.misses")
            return None

    def put(self, key: str, value: Any) -> None:
        """Insert/replace an entry directly."""
        with self._lock:
            self._insert(key, value)

    def invalidate(self, key: str) -> bool:
        """Drop one entry; True if it was resident."""
        with self._lock:
            present = self._entries.pop(key, None) is not None
            if present:
                self.invalidations += 1
            return present

    def clear(self) -> int:
        """Drop every resident entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    # ------------------------------------------------------------------
    def _insert(self, key: str, value: Any) -> None:
        # caller holds the lock
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("cache.evictions")

    def _count(self, name: str) -> None:
        # caller holds the lock; registry counters have their own lock
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, float]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "compiles": self.compiles,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"PlanCache({stats['entries']}/{self.capacity} entries, "
            f"hit_rate={stats['hit_rate']:.2f})"
        )
