"""Telemetry that crosses the cluster wire.

A cluster worker pickles every event its job emits onto its report pipe
and ships a :meth:`~repro.service.telemetry.MetricsRegistry.dump` of
the job's metrics with its DONE message, which the coordinator merges
into the pool registry.  The contract: events with NumPy payloads
survive pickling, and dumps stay picklable and merge counters, gauges
and histogram windows.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.service.telemetry import CHUNK, MetricsRegistry, TelemetryEvent


class TestEventPicklability:
    def test_event_with_numpy_payload_roundtrips(self):
        event = TelemetryEvent(
            kind=CHUNK, job_id="j-1", seq=3, t=0.5,
            payload={
                "rows": 10,
                "t_values": np.linspace(0.0, 1.0, 11),
            },
        )
        clone = pickle.loads(pickle.dumps(event))
        assert clone.kind == CHUNK and clone.seq == 3
        assert np.array_equal(
            clone.payload["t_values"], event.payload["t_values"],
        )


class TestMetricsDumpMerge:
    def test_counters_and_gauges(self):
        worker = MetricsRegistry()
        worker.counter("jobs.done").inc(3)
        worker.gauge("queue.depth").set(7)
        parent = MetricsRegistry()
        parent.counter("jobs.done").inc(1)
        parent.merge(worker.dump())
        snapshot = parent.snapshot()
        assert snapshot["counters"]["jobs.done"] == 4
        assert snapshot["gauges"]["queue.depth"] == 7

    def test_histogram_window_merges(self):
        worker = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            worker.histogram("wall").observe(value)
        parent = MetricsRegistry()
        parent.histogram("wall").observe(10.0)
        parent.merge(worker.dump())
        stats = parent.snapshot()["histograms"]["wall"]
        assert stats["count"] == 4
        assert stats["max"] == 10.0
        assert stats["min"] == 1.0

    def test_dump_is_picklable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.5)
        dump = pickle.loads(pickle.dumps(registry.dump()))
        clone = MetricsRegistry()
        clone.merge(dump)
        assert clone.snapshot()["counters"]["c"] == 1

