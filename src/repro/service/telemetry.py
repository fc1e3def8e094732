"""Streaming telemetry and service metrics.

Two complementary observability surfaces for the job service:

* **Per-job event streams** — every job owns a bounded
  :class:`~repro.core.channel.Channel` (the paper's thread-communication
  primitive, reused verbatim: a service consumer is just one more
  receiver on a bounded channel with an overflow policy).  Jobs push
  :class:`TelemetryEvent` records — progress ticks, partial trajectory
  chunks, state transitions — and the engine closes the channel when the
  job reaches a terminal state, so ``for event in handle.stream():``
  terminates naturally.

* **Service-wide metrics** — a :class:`MetricsRegistry` of named
  counters, gauges and histograms (queue depth, cache hit-rate, job
  wall-time).  Histogram summaries reuse the percentile vocabulary of
  :func:`repro.analysis.metrics.percentiles`, so a service dashboard and
  an EXPERIMENTS.md table read the same "p50"/"p95".
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.analysis.metrics import percentiles

#: event kinds a job may emit (terminal states are emitted by the engine)
PROGRESS = "progress"
CHUNK = "chunk"
STATE = "state"
LOG = "log"
#: a retried attempt restored from a checkpoint instead of cold-starting;
#: payload carries the recovered sim-time/steps (resilience layer)
RESUMED = "resumed"
#: static-check findings for a submitted job (lint gate, warn policy);
#: payload carries per-severity counts and the diagnostic records
CHECKS = "checks"
#: execution-backend resolution for a job; payload carries the
#: requested and effective backend names and, on a fallback, the reason
BACKEND = "backend"
#: a cluster job left a dead worker and was re-dispatched to a live one;
#: payload carries the lost worker, the attempt count and what the
#: shared checkpoint store knows about the job (cluster layer)
MIGRATED = "migrated"
#: cluster worker lifecycle (spawned / lost / respawned); payload
#: carries the worker id and, for deaths, the in-flight job if any
WORKER = "worker"
#: deadline-aware admission decision for a submitted job; payload
#: carries admitted/reason plus the predicted cost and completion the
#: decision was based on (see repro.service.admission)
ADMISSION = "admission"


@dataclass(frozen=True)
class TelemetryEvent:
    """One item on a job's telemetry channel."""

    kind: str
    job_id: str
    #: monotonically increasing per-job sequence number
    seq: int
    #: simulation time the event refers to (NaN for untimed events)
    t: float
    payload: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TelemetryEvent({self.kind}, job={self.job_id}, "
            f"seq={self.seq}, t={self.t:g})"
        )


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe point-in-time value (e.g. queue depth)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A bounded-reservoir sample of observations (latencies, sizes).

    Keeps the most recent ``capacity`` observations in a ring; the
    summary reports count over *all* observations ever made but
    percentiles over the retained window — the standard sliding-window
    compromise that keeps memory bounded on a long-lived service.
    """

    __slots__ = ("name", "capacity", "_ring", "_next", "_count", "_lock")

    def __init__(self, name: str, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"histogram capacity must be >= 1: {capacity}")
        self.name = name
        self.capacity = capacity
        self._ring: list = []
        self._next = 0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            if len(self._ring) < self.capacity:
                self._ring.append(float(value))
            else:
                self._ring[self._next] = float(value)
                self._next = (self._next + 1) % self.capacity
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def summary(
        self, levels: Tuple[float, ...] = (50.0, 95.0)
    ) -> Dict[str, float]:
        with self._lock:
            window = list(self._ring)
            total = self._count
        out = percentiles(window, levels=levels)
        out["count"] = total
        return out

    def dump(self) -> Dict[str, Any]:
        """Raw transferable state: the retained window plus the lifetime
        count (plain data, picklable — the cross-process wire form)."""
        with self._lock:
            return {"window": list(self._ring), "count": self._count}

    def merge(self, dump: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`dump` into this one.

        Window values enter the ring as fresh observations; the lifetime
        count adds the *dumped* count (not the window length), so counts
        stay exact even when the remote window already wrapped.
        """
        window = list(dump.get("window", ()))
        with self._lock:
            for value in window:
                if len(self._ring) < self.capacity:
                    self._ring.append(float(value))
                else:
                    self._ring[self._next] = float(value)
                    self._next = (self._next + 1) % self.capacity
            self._count += max(int(dump.get("count", 0)), 0)


class MetricsRegistry:
    """A thread-safe, create-on-first-use registry of named metrics.

    One registry per :class:`~repro.service.SimulationService`;
    :meth:`snapshot` renders every metric into one nested plain-dict —
    the shape the service exposes to callers, prints in examples and
    serialises into ``BENCH_*.json`` artefacts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str, capacity: int = 1024) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, capacity)
            return metric

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: metric.value for name, metric in sorted(counters.items())
            },
            "gauges": {
                name: metric.value for name, metric in sorted(gauges.items())
            },
            "histograms": {
                name: metric.summary()
                for name, metric in sorted(histograms.items())
            },
        }

    def dump(self) -> Dict[str, Dict[str, Any]]:
        """Transferable raw state of every metric (plain data only).

        Unlike :meth:`snapshot` — which summarises histograms into
        percentiles — a dump keeps raw observation windows, so a
        coordinator can :meth:`merge` worker registries without losing
        distribution information.  This is the form worker processes
        ship back over pickled queues.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: metric.value for name, metric in counters.items()
            },
            "gauges": {
                name: metric.value for name, metric in gauges.items()
            },
            "histograms": {
                name: metric.dump() for name, metric in histograms.items()
            },
        }

    def merge(self, dump: Dict[str, Dict[str, Any]]) -> None:
        """Fold a remote registry's :meth:`dump` into this one.

        Counters add, gauges take the remote value (last-writer-wins —
        remote gauges describe the remote process), histograms merge
        windows and counts.  The cluster coordinator folds each
        worker's job-scoped metrics in this way.
        """
        for name, value in dump.get("counters", {}).items():
            if value:
                self.counter(name).inc(int(value))
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, hist_dump in dump.get("histograms", {}).items():
            self.histogram(name).merge(hist_dump)


class EventEmitter:
    """Sequenced event production bound to one job's channel.

    Emission never blocks a job: the channel's OVERWRITE policy sheds
    the *oldest* events under consumer lag (freshest-data semantics,
    like the paper's control channels), and emitting after the consumer
    vanished is a no-op rather than an error.
    """

    def __init__(self, job_id: str, channel) -> None:
        self.job_id = job_id
        self.channel = channel
        self._seq = itertools.count()

    def emit(
        self,
        kind: str,
        t: float = float("nan"),
        **payload: Any,
    ) -> Optional[TelemetryEvent]:
        event = TelemetryEvent(
            kind=kind,
            job_id=self.job_id,
            seq=next(self._seq),
            t=t,
            payload=payload,
        )
        try:
            self.channel.push(event)
        except Exception:
            return None
        return event
