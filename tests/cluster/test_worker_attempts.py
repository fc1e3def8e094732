"""A cluster worker retries through the service's attempt loop.

Each case drives :func:`repro.cluster.worker._run_envelope` in this
process, with a fake report pipe and cancel cell, and swaps in the spec
under test through a patched ``build_spec``.  Whatever the worker runs,
it must end the way a :class:`~repro.service.engine.JobEngine` thread
ends the same spec: a deadline that falls during a retry's backoff ends
the job TIMEOUT, and an injected crash resumes from the store's spool.
A finished job leaves its checkpoint spool in the store and nothing
else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster import worker
from repro.cluster.requests import ClusterJobRequest, build_spec
from repro.cluster.store import ArtifactStore
from repro.resilience import FaultInjector
from repro.service import telemetry
from repro.service.cache import PlanCache
from repro.service.jobs import JobSpec, JobState, TransientJobError


class Outbox:
    """Collects the events a job forwards to the coordinator."""

    def __init__(self) -> None:
        self.events = []

    def send(self, message) -> None:
        if message[0] == worker.MSG_EVENT:
            self.events.append(message[3])

    def states(self):
        return [
            event.payload["state"] for event in self.events
            if event.kind == telemetry.STATE
        ]


class CancelCell:
    value = 0


@dataclass
class AlwaysTransient(JobSpec):
    """Fails transiently on every attempt."""

    kind = "single_run"

    def execute(self, ctx):
        raise TransientJobError("flaky dependency")


def run(envelope, store):
    """``(state, result, error, outbox, metrics counters)`` of one
    envelope run by worker 0."""
    outbox = Outbox()
    services = worker._WorkerServices(PlanCache(), 0)
    state, result, error = worker._run_envelope(
        0, envelope, outbox, CancelCell(), store, services,
    )
    counters = services.metrics.snapshot()["counters"]
    return state, result, error, outbox, counters


def cruise_request():
    return ClusterJobRequest(
        kind="single_run", model="cruise", retries=1, checkpoint=True,
        params={
            "t_end": 2.0, "sync_interval": 0.01,
            "checkpoint_every_steps": 40,
        },
    )


def test_deadline_during_backoff_times_out(tmp_path, monkeypatch):
    spec = AlwaysTransient(deadline=0.3, retries=3, backoff=2.0)
    monkeypatch.setattr(worker, "build_spec", lambda *a, **k: spec)
    request = ClusterJobRequest(
        kind="single_run", model="lag", deadline=0.3, retries=3,
        checkpoint=False,
    )
    started = time.monotonic()
    state, __, error, outbox, counters = run(
        worker.JobEnvelope("job-a", request, epoch=1, deadline_remaining=0.3),
        ArtifactStore(tmp_path),
    )
    assert time.monotonic() - started < 1.0
    assert state is JobState.TIMEOUT and error is None
    assert counters["jobs.retries"] == 1
    assert outbox.states() == ["running", "retrying"]


def test_injected_crash_resumes_from_the_store_spool(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    state, reference, __, __, __ = run(
        worker.JobEnvelope("job-ref", cruise_request(), epoch=1), store,
    )
    assert state is JobState.DONE

    def crashing_spec(request, job_id, spool_dir=None):
        spec = build_spec(request, job_id, spool_dir=spool_dir)
        spec.fault_injector = FaultInjector(seed=6).crash_at_step(120)
        return spec

    monkeypatch.setattr(worker, "build_spec", crashing_spec)
    state, result, error, outbox, counters = run(
        worker.JobEnvelope("job-b", cruise_request(), epoch=2), store,
    )
    assert state is JobState.DONE, error
    assert counters["jobs.retries"] == 1
    assert outbox.states() == ["running", "retrying"]
    resumed = [e for e in outbox.events if e.kind == telemetry.RESUMED]
    assert [e.payload["attempt"] for e in resumed] == [2]
    assert store.checkpoints("job-b")
    assert result.t_final == reference.t_final
    assert set(result.probes) == set(reference.probes)
    for name, want in reference.probes.items():
        assert np.array_equal(result.probes[name].times, want.times)
        assert np.array_equal(result.probes[name].states, want.states)


def test_a_checkpointed_job_leaves_only_its_spool(tmp_path):
    store = ArtifactStore(tmp_path)
    state, __, error, __, __ = run(
        worker.JobEnvelope("job-c", cruise_request(), epoch=1), store,
    )
    assert state is JobState.DONE, error
    assert store.checkpoints("job-c")
    spool = "jobs/job-c/spool"
    paths = sorted(
        path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")
    )
    assert [p for p in paths if not p.startswith(spool + "/")] == [
        "jobs", "jobs/job-c", spool,
    ]
