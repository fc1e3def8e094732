"""Deadline-aware admission and EDF dispatch (repro.service.admission).

The service-side loop-close of the schedulability story: a calibrated
per-kind cost model predicts each job's completion, jobs that cannot
make their deadline are rejected at submission (with ADMISSION
telemetry), and EDF dispatch orders the queue by urgency.  The last
test demonstrates the ISSUE's acceptance property in miniature:
deadline-aware admission improves the met-deadline rate over plain
FIFO on an overloaded job mix.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, List

import pytest

from repro.service import SimulationService
from repro.service.admission import (
    AdmissionDecision, CostModel, DeadlineAdmission,
)
from repro.service.engine import JobEngine
from repro.service.jobs import (
    DeadlineInfeasible, JobContext, JobSpec, JobState, SingleRunJob,
)
from repro.service.telemetry import ADMISSION


@dataclass
class SpinJob(JobSpec):
    """Cooperatively spins for ``duration`` seconds, checkpointing."""

    duration: float = 0.05
    kind = "spin"

    def execute(self, ctx: JobContext) -> str:
        end = time.monotonic() + self.duration
        while time.monotonic() < end:
            ctx.checkpoint()
            time.sleep(0.002)
        return "spun"


@dataclass
class TagJob(JobSpec):
    """Records its tag into a shared list when it runs (order probe)."""

    tag: str = ""
    seen: Any = None
    kind = "tag"

    def execute(self, ctx: JobContext) -> str:
        self.seen.append(self.tag)
        return self.tag


@dataclass
class GateJob(JobSpec):
    """Blocks until its gate is set (for parking the worker)."""

    gate: Any = None
    started: Any = None
    kind = "gate"

    def execute(self, ctx: JobContext) -> str:
        if self.started is not None:
            self.started.set()
        while not self.gate.wait(0.005):
            ctx.checkpoint()
        return "released"


# ----------------------------------------------------------------------
# the cost model
# ----------------------------------------------------------------------
class TestCostModel:
    def test_cold_predicts_nothing(self):
        assert CostModel().predict("spin") is None

    def test_per_kind_ema(self):
        model = CostModel(alpha=0.5)
        model.observe("spin", 1.0)
        model.observe("spin", 2.0)
        assert model.predict("spin") == pytest.approx(1.5)

    def test_global_fallback_for_unseen_kind(self):
        model = CostModel()
        model.observe("spin", 2.0)
        assert model.predict("never_seen") == pytest.approx(2.0)

    def test_seed_pins_initial_estimate(self):
        model = CostModel(alpha=0.5)
        model.seed("spin", 4.0)
        assert model.predict("spin") == pytest.approx(4.0)
        model.observe("spin", 2.0)
        assert model.predict("spin") == pytest.approx(3.0)

    def test_negative_wall_ignored(self):
        model = CostModel()
        model.observe("spin", -1.0)
        assert model.predict("spin") is None

    def test_snapshot_includes_global(self):
        model = CostModel()
        model.observe("spin", 1.0)
        snapshot = model.snapshot()
        assert snapshot["spin"] == pytest.approx(1.0)
        assert snapshot["*"] == pytest.approx(1.0)

    def test_alpha_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            CostModel(alpha=0.0)


class TestDeadlineAdmission:
    def test_no_deadline_always_admitted(self):
        decision = DeadlineAdmission().evaluate(
            "spin", None, queued=100, workers=1,
        )
        assert decision.admitted and decision.reason == "no_deadline"

    def test_cold_model_admits(self):
        decision = DeadlineAdmission().evaluate(
            "spin", 0.001, queued=100, workers=1,
        )
        assert decision.admitted and decision.reason == "cold"

    def test_feasible_deadline_admitted(self):
        admission = DeadlineAdmission()
        admission.cost_model.observe("spin", 0.1)
        decision = admission.evaluate("spin", 1.0, queued=0, workers=1)
        assert decision.admitted and decision.reason == "ok"
        assert decision.predicted_completion == pytest.approx(0.1)

    def test_queue_pressure_inflates_prediction(self):
        admission = DeadlineAdmission()
        admission.cost_model.observe("spin", 0.1)
        decision = admission.evaluate("spin", 0.25, queued=4, workers=2)
        # 0.1 * (1 + 4/2) = 0.3 > 0.25
        assert not decision.admitted
        assert decision.reason == "deadline_infeasible"
        assert decision.predicted_completion == pytest.approx(0.3)

    def test_margin_relaxes_the_predicate(self):
        admission = DeadlineAdmission(margin=2.0)
        admission.cost_model.observe("spin", 0.1)
        decision = admission.evaluate("spin", 0.25, queued=4, workers=2)
        assert decision.admitted  # 0.3 <= 0.25 * 2

    def test_margin_validated(self):
        with pytest.raises(ValueError, match="margin"):
            DeadlineAdmission(margin=0.0)

    def test_decision_payload_shape(self):
        payload = AdmissionDecision(True, "ok", 0.1, 0.2, 1.0).as_payload()
        assert payload == {
            "admitted": True, "reason": "ok", "predicted_cost": 0.1,
            "predicted_completion": 0.2, "deadline": 1.0,
        }


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
class TestEngineAdmission:
    def engine(self, **kwargs):
        admission = DeadlineAdmission()
        return JobEngine(workers=1, admission=admission, **kwargs), admission

    def test_infeasible_job_rejected_at_submit(self):
        engine, admission = self.engine()
        with engine:
            admission.cost_model.seed("spin", 10.0)
            with pytest.raises(DeadlineInfeasible):
                engine.submit(SpinJob(duration=0.01, deadline=0.05))

    def test_rejection_is_observable(self):
        engine, admission = self.engine()
        with engine:
            admission.cost_model.seed("spin", 10.0)
            try:
                engine.submit(SpinJob(duration=0.01, deadline=0.05))
            except DeadlineInfeasible as exc:
                error = exc
            counters = engine.metrics.snapshot()["counters"]
            assert counters["sched.rejected.deadline"] == 1
            assert "rejected at admission" in str(error)

    def test_rejected_handle_carries_admission_event(self):
        engine, admission = self.engine()
        with engine:
            admission.cost_model.seed("spin", 10.0)
            with pytest.raises(DeadlineInfeasible):
                engine.submit(SpinJob(duration=0.01, deadline=0.05))
            # the handle is unreachable (submit raised), but a fresh
            # admitted job shows the event stream contract
            handle = engine.submit(SpinJob(duration=0.01, deadline=30.0))
            handle.result(timeout=10.0)
            events = [
                e for e in handle.channel.drain() if e.kind == ADMISSION
            ]
            assert len(events) == 1
            assert events[0].seq == -1
            assert events[0].payload["admitted"] is True
            assert events[0].payload["reason"] == "ok"

    def test_done_jobs_calibrate_the_cost_model(self):
        engine, admission = self.engine()
        with engine:
            handle = engine.submit(SpinJob(duration=0.03))
            handle.result(timeout=10.0)
            predicted = admission.cost_model.predict("spin")
            assert predicted is not None
            assert predicted >= 0.03
            counters = engine.metrics.snapshot()["counters"]
            assert counters["sched.admitted"] == 1

    def test_deadline_met_and_missed_counters(self):
        engine, __ = self.engine()
        with engine:
            met = engine.submit(SpinJob(duration=0.01, deadline=30.0))
            met.result(timeout=10.0)
            missed = engine.submit(SpinJob(duration=5.0, deadline=0.05))
            missed.wait(timeout=10.0)
            assert missed.state is JobState.TIMEOUT
            snapshot = engine.metrics.snapshot()
            assert snapshot["counters"]["sched.deadline_met"] == 1
            assert snapshot["counters"]["sched.deadline_missed"] == 1
            assert "sched.lateness" in snapshot["histograms"]

    def test_service_facade_wires_admission(self):
        with SimulationService(
            workers=1, deadline_admission=True, dispatch="edf",
        ) as service:
            assert service.admission is not None
            service.admission.cost_model.seed("single_run", 10.0)
            with pytest.raises(DeadlineInfeasible):
                service.submit(SingleRunJob(
                    model_factory=lambda: None, t_end=1.0, deadline=0.01,
                ))


class TestEDFDispatch:
    def test_queue_drains_in_deadline_order(self):
        seen: List[str] = []
        gate = threading.Event()
        started = threading.Event()
        with JobEngine(workers=1, dispatch="edf") as engine:
            engine.submit(GateJob(gate=gate, started=started))
            assert started.wait(timeout=10.0)
            # queued while the only worker is parked; EDF must reorder
            engine.submit(TagJob(tag="late", seen=seen, deadline=30.0))
            engine.submit(TagJob(tag="urgent", seen=seen, deadline=5.0))
            engine.submit(TagJob(tag="whenever", seen=seen))  # no deadline
            engine.submit(TagJob(tag="soon", seen=seen, deadline=10.0))
            gate.set()
            assert engine.drain(timeout=10.0)
        assert seen == ["urgent", "soon", "late", "whenever"]

    def test_fifo_preserves_submit_order(self):
        seen: List[str] = []
        gate = threading.Event()
        started = threading.Event()
        with JobEngine(workers=1, dispatch="fifo") as engine:
            engine.submit(GateJob(gate=gate, started=started))
            assert started.wait(timeout=10.0)
            engine.submit(TagJob(tag="late", seen=seen, deadline=30.0))
            engine.submit(TagJob(tag="urgent", seen=seen, deadline=5.0))
            gate.set()
            assert engine.drain(timeout=10.0)
        assert seen == ["late", "urgent"]

    def test_unknown_dispatch_rejected(self):
        from repro.service.jobs import JobError

        with pytest.raises(JobError, match="dispatch"):
            JobEngine(workers=1, dispatch="lifo")

    def test_edf_shutdown_drains_queued_jobs(self):
        seen: List[str] = []
        with JobEngine(workers=1, dispatch="edf") as engine:
            handles = [
                engine.submit(TagJob(tag=str(i), seen=seen, deadline=30.0))
                for i in range(5)
            ]
        # context exit = shutdown(wait=True): sentinels sort after jobs
        assert len(seen) == 5
        assert all(h.state is JobState.DONE for h in handles)


class TestAdmissionImprovesMetRate:
    """The acceptance property in miniature: on an overloaded one-worker
    mix, deadline-aware admission + EDF strictly beats FIFO's
    met-deadline rate (rejected jobs never clog the queue)."""

    JOBS = 10
    DURATION = 0.05
    DEADLINE = 0.18

    def overload(self, engine) -> None:
        for __ in range(self.JOBS):
            try:
                engine.submit(SpinJob(
                    duration=self.DURATION, deadline=self.DEADLINE,
                ))
            except DeadlineInfeasible:
                continue
        engine.drain(timeout=30.0)

    def met_rate(self, engine) -> float:
        counters = engine.metrics.snapshot()["counters"]
        met = counters.get("sched.deadline_met", 0)
        missed = counters.get("sched.deadline_missed", 0)
        return met / max(1, met + missed)

    def test_edf_with_admission_beats_fifo(self):
        with JobEngine(workers=1, dispatch="fifo") as fifo:
            self.overload(fifo)
            fifo_rate = self.met_rate(fifo)
            fifo_counters = fifo.metrics.snapshot()["counters"]

        admission = DeadlineAdmission()
        admission.cost_model.seed("spin", self.DURATION)
        with JobEngine(
            workers=1, dispatch="edf", admission=admission,
        ) as sched:
            self.overload(sched)
            sched_rate = self.met_rate(sched)
            sched_counters = sched.metrics.snapshot()["counters"]

        # FIFO queues everything and most jobs blow their deadline
        assert fifo_counters.get("sched.deadline_missed", 0) > 0
        # admission sheds the hopeless tail instead of queueing it
        assert sched_counters.get("sched.rejected.deadline", 0) > 0
        assert sched_rate > fifo_rate
