"""JobEngine: bounded pool, deadlines, cancellation, retry, shedding.

The invariant under test throughout: whatever happens to a job —
timeout, cancellation, crash, retry exhaustion — its worker slot is
released and the pool keeps serving subsequent jobs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, List

import pytest

from repro.service.engine import JobEngine
from repro.service.jobs import (
    JobCancelledError,
    JobContext,
    JobError,
    JobSpec,
    JobState,
    JobTimeoutError,
    ServiceOverloaded,
    TransientJobError,
)
from repro.service.telemetry import STATE


@dataclass
class SpinJob(JobSpec):
    """Cooperatively spins for ``duration`` seconds, checkpointing."""

    duration: float = 0.2
    kind = "spin"

    def execute(self, ctx: JobContext) -> str:
        end = time.monotonic() + self.duration
        while time.monotonic() < end:
            ctx.checkpoint()
            time.sleep(0.005)
        return "spun"


@dataclass
class GateJob(JobSpec):
    """Blocks until its gate is set (for filling the pool on purpose)."""

    gate: Any = None
    started: Any = None
    kind = "gate"

    def execute(self, ctx: JobContext) -> str:
        if self.started is not None:
            self.started.set()
        while not self.gate.wait(0.005):
            ctx.checkpoint()
        return "released"


@dataclass
class FlakyJob(JobSpec):
    """Fails transiently ``failures`` times, then succeeds."""

    failures: int = 2
    attempts_seen: List[float] = field(default_factory=list)
    kind = "flaky"

    def execute(self, ctx: JobContext) -> str:
        self.attempts_seen.append(time.monotonic())
        if len(self.attempts_seen) <= self.failures:
            raise TransientJobError(
                f"flaky attempt {len(self.attempts_seen)}"
            )
        return "eventually"


@dataclass
class CrashJob(JobSpec):
    kind = "crash"

    def execute(self, ctx: JobContext) -> str:
        raise RuntimeError("hard failure")


class TestLifecycle:
    def test_done_job_returns_result(self):
        with JobEngine(workers=2) as engine:
            handle = engine.submit(SpinJob(duration=0.02))
            assert handle.result(timeout=10.0) == "spun"
            assert handle.state is JobState.DONE
            assert handle.wall_time is not None

    def test_failed_job_raises_original_error(self):
        with JobEngine(workers=1) as engine:
            handle = engine.submit(CrashJob())
            with pytest.raises(RuntimeError, match="hard failure"):
                handle.result(timeout=10.0)
            assert handle.state is JobState.FAILED

    def test_submit_after_shutdown_rejected(self):
        engine = JobEngine(workers=1)
        engine.shutdown()
        with pytest.raises(JobError):
            engine.submit(SpinJob())

    def test_state_events_on_channel(self):
        with JobEngine(workers=1) as engine:
            handle = engine.submit(SpinJob(duration=0.02))
            handle.result(timeout=10.0)
            states = [
                event.payload["state"] for event in handle.stream()
                if event.kind == STATE
            ]
            assert states == ["running", "done"]


class TestDeadlines:
    def test_deadline_exceeded_reports_timeout(self):
        with JobEngine(workers=1) as engine:
            handle = engine.submit(SpinJob(duration=5.0, deadline=0.05))
            with pytest.raises(JobTimeoutError):
                handle.result(timeout=10.0)
            assert handle.state is JobState.TIMEOUT

    def test_timeout_releases_worker_slot(self):
        """The acceptance check: a deadline-exceeded job must not wedge
        the (single-worker) pool."""
        with JobEngine(workers=1) as engine:
            doomed = engine.submit(SpinJob(duration=5.0, deadline=0.05))
            follow_up = engine.submit(SpinJob(duration=0.02))
            with pytest.raises(JobTimeoutError):
                doomed.result(timeout=10.0)
            assert follow_up.result(timeout=10.0) == "spun"

    def test_expired_in_queue_is_dead_on_arrival(self):
        """Queue wait counts against the deadline; an expired job times
        out without ever RUNNING."""
        gate = threading.Event()
        started = threading.Event()
        with JobEngine(workers=1) as engine:
            blocker = engine.submit(GateJob(gate=gate, started=started))
            assert started.wait(5.0)
            doomed = engine.submit(SpinJob(duration=0.01, deadline=0.05))
            time.sleep(0.1)  # let the deadline lapse while queued
            gate.set()
            assert blocker.result(timeout=10.0) == "released"
            with pytest.raises(JobTimeoutError):
                doomed.result(timeout=10.0)
            assert doomed.state is JobState.TIMEOUT
            assert doomed.attempts == 0  # never touched a worker


class TestCancellation:
    def test_cancel_running_job(self):
        with JobEngine(workers=1) as engine:
            handle = engine.submit(SpinJob(duration=5.0))
            time.sleep(0.05)  # let it start
            assert handle.cancel() is True
            with pytest.raises(JobCancelledError):
                handle.result(timeout=10.0)
            assert handle.state is JobState.CANCELLED

    def test_cancel_queued_job_never_runs(self):
        gate = threading.Event()
        started = threading.Event()
        with JobEngine(workers=1) as engine:
            blocker = engine.submit(GateJob(gate=gate, started=started))
            assert started.wait(5.0)
            queued = engine.submit(SpinJob(duration=5.0))
            assert queued.cancel() is True
            gate.set()
            blocker.result(timeout=10.0)
            with pytest.raises(JobCancelledError):
                queued.result(timeout=10.0)
            assert queued.attempts == 0

    def test_cancelled_job_releases_worker_slot(self):
        with JobEngine(workers=1) as engine:
            doomed = engine.submit(SpinJob(duration=5.0))
            time.sleep(0.05)
            doomed.cancel()
            follow_up = engine.submit(SpinJob(duration=0.02))
            assert follow_up.result(timeout=10.0) == "spun"

    def test_cancel_after_completion_returns_false(self):
        with JobEngine(workers=1) as engine:
            handle = engine.submit(SpinJob(duration=0.02))
            handle.result(timeout=10.0)
            assert handle.cancel() is False


class TestRetries:
    def test_transient_failure_retried_until_success(self):
        spec = FlakyJob(failures=2, retries=3, backoff=0.01)
        with JobEngine(workers=1) as engine:
            handle = engine.submit(spec)
            assert handle.result(timeout=10.0) == "eventually"
            assert len(spec.attempts_seen) == 3
            assert handle.attempts == 3

    def test_retry_budget_exhaustion_fails(self):
        spec = FlakyJob(failures=5, retries=1, backoff=0.01)
        with JobEngine(workers=1) as engine:
            handle = engine.submit(spec)
            with pytest.raises(TransientJobError):
                handle.result(timeout=10.0)
            assert len(spec.attempts_seen) == 2

    def test_backoff_grows_between_attempts(self):
        spec = FlakyJob(failures=2, retries=2, backoff=0.05)
        with JobEngine(workers=1) as engine:
            engine.submit(spec).result(timeout=10.0)
        gap1 = spec.attempts_seen[1] - spec.attempts_seen[0]
        gap2 = spec.attempts_seen[2] - spec.attempts_seen[1]
        assert gap1 >= 0.04
        assert gap2 >= 1.5 * gap1


class TestShedding:
    def test_overload_sheds_with_service_overloaded(self):
        gate = threading.Event()
        started = threading.Event()
        engine = JobEngine(workers=1, queue_limit=1)
        try:
            blocker = engine.submit(GateJob(gate=gate, started=started))
            assert started.wait(5.0)
            queued = engine.submit(SpinJob(duration=0.01))
            with pytest.raises(ServiceOverloaded):
                engine.submit(SpinJob(duration=0.01))
            gate.set()
            assert blocker.result(timeout=10.0) == "released"
            assert queued.result(timeout=10.0) == "spun"
        finally:
            engine.shutdown()

    def test_shed_handle_is_terminal(self):
        gate = threading.Event()
        started = threading.Event()
        engine = JobEngine(workers=1, queue_limit=1)
        try:
            engine.submit(GateJob(gate=gate, started=started))
            assert started.wait(5.0)
            engine.submit(SpinJob())
            shed = None
            try:
                engine.submit(SpinJob())
            except ServiceOverloaded:
                shed = True
            assert shed
            assert engine.metrics.counter("jobs.rejected").value == 1
        finally:
            gate.set()
            engine.shutdown()


class TestMetrics:
    def test_terminal_state_counters(self):
        with JobEngine(workers=2) as engine:
            done = engine.submit(SpinJob(duration=0.02))
            done.result(timeout=10.0)
            failed = engine.submit(CrashJob())
            with pytest.raises(RuntimeError):
                failed.result(timeout=10.0)
            counters = engine.metrics.snapshot()["counters"]
            assert counters["jobs.submitted"] == 2
            assert counters["jobs.done"] == 1
            assert counters["jobs.failed"] == 1

    def test_wall_time_histogram_observed(self):
        with JobEngine(workers=1) as engine:
            engine.submit(SpinJob(duration=0.02)).result(timeout=10.0)
            hist = engine.metrics.snapshot()["histograms"]["job.wall_time"]
            assert hist["count"] == 1
            assert hist["p50"] > 0.0

    def test_drain_waits_for_queue(self):
        with JobEngine(workers=2) as engine:
            handles = [
                engine.submit(SpinJob(duration=0.02)) for __ in range(6)
            ]
            assert engine.drain(timeout=10.0)
            assert all(h.state is JobState.DONE for h in handles)

