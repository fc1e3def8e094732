"""The service-layer lint gate (submit-time policies)."""

import pytest

from repro.core.builder import ModelBuilder
from repro.dataflow import Bias, Gain
from repro.service import (
    CHECK_POLICIES,
    ChecksFailedError,
    JobState,
    SimulationService,
    SingleRunJob,
)
from repro.service.telemetry import CHECKS

from tests.check.builders import feedback_model, loop_model


def counting(factory):
    calls = {"n": 0}

    def build():
        calls["n"] += 1
        return factory()

    return build, calls


class TestGatePolicies:
    def test_policy_values(self):
        assert CHECK_POLICIES == ("off", "warn", "enforce")
        with pytest.raises(ValueError):
            SimulationService(check_policy="strict")

    def test_enforce_rejects_before_queue(self):
        with SimulationService(
            workers=1, check_policy="enforce"
        ) as svc:
            spec = SingleRunJob(model_factory=loop_model, t_end=0.1)
            with pytest.raises(ChecksFailedError) as info:
                svc.submit(spec)
            assert "STR001" in str(info.value)
            assert info.value.diagnostics
            assert svc.metrics.counter("checks.failed").value == 1
            # nothing reached the engine
            assert svc.metrics_snapshot()["queue"]["depth"] == 0

    def test_enforce_admits_clean_model(self):
        with SimulationService(
            workers=1, check_policy="enforce"
        ) as svc:
            handle = svc.submit(SingleRunJob(
                model_factory=feedback_model, t_end=0.05,
            ))
            handle.result(timeout=30.0)
            assert svc.metrics.counter("checks.passed").value == 1
            assert svc.metrics.counter("checks.failed").value == 0

    def test_warn_admits_and_streams_findings(self):
        with SimulationService(workers=1, check_policy="warn") as svc:
            handle = svc.submit(SingleRunJob(
                model_factory=loop_model, t_end=0.05,
            ))
            events = [
                e for e in handle.stream() if e.kind == CHECKS
            ]
            assert len(events) == 1
            payload = events[0].payload
            assert payload["errors"] >= 1
            assert any(
                d["code"] == "STR001" for d in payload["diagnostics"]
            )
            assert svc.metrics.counter("checks.failed").value == 1

    def test_off_never_builds_the_model_early(self):
        build, calls = counting(feedback_model)
        with SimulationService(workers=1) as svc:
            handle = svc.submit(SingleRunJob(
                model_factory=build, t_end=0.05,
            ))
            handle.result(timeout=30.0)
        # only the job execution itself called the factory
        assert calls["n"] == 1
        assert "checks.failed" not in (
            svc.metrics_snapshot()["counters"]
        )

    def test_gate_result_memoised_per_spec(self):
        build, calls = counting(loop_model)
        with SimulationService(
            workers=1, check_policy="enforce"
        ) as svc:
            spec = SingleRunJob(model_factory=build, t_end=0.1)
            for __ in range(3):
                with pytest.raises(ChecksFailedError):
                    svc.submit(spec)
        assert calls["n"] == 1
        assert svc.metrics.counter("checks.failed").value == 3

    def test_specs_without_factories_skip_the_gate(self):
        with SimulationService(
            workers=1, check_policy="enforce"
        ) as svc:
            spec = SingleRunJob(model_factory=None, t_end=0.05)
            assert svc._gate(spec) is None
            spec2 = SingleRunJob(
                model_factory=feedback_model, t_end=0.05,
            )
            assert svc._gate_result(spec2) is not None


class TestChecksFailedError:
    def test_message_carries_codes_and_subjects(self):
        from repro.check import run_checks

        result = run_checks(loop_model())
        error = ChecksFailedError("myjob", result.errors)
        text = str(error)
        assert "myjob" in text
        assert "STR001" in text
        assert error.diagnostics == result.errors


class TestOneError:
    """A failed strict validation and a rejected submission raise the
    same class, whichever surface the model arrives through."""

    def test_builder_rejects_a_loop(self):
        builder = (
            ModelBuilder("loop")
            .streamer(Gain("a", k=0.5))
            .streamer(Bias("b", bias=1.0))
            .flow("a.out", "b.in")
            .flow("b.out", "a.in")
        )
        with pytest.raises(ChecksFailedError, match="STR001") as info:
            builder.build()
        assert info.value.subject == "loop"
        assert [d.code for d in info.value.diagnostics] == ["STR001"]

    def test_validated_single_run_fails_before_it_runs(self):
        # the gate is off: the job's own validation rejects the loop
        with SimulationService(workers=1) as svc:
            handle = svc.submit(SingleRunJob(
                model_factory=loop_model, t_end=0.1,
            ))
            with pytest.raises(ChecksFailedError, match="STR001"):
                handle.result(timeout=30.0)
            assert handle.state is JobState.FAILED
