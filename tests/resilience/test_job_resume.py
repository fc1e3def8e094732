"""Crash-safe job resume through the engine's retry path.

The headline guarantee: a job killed by an injected fault and retried
restores the newest valid checkpoint and finishes with results *bitwise
identical* to an uninterrupted run (fixed-step plans).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from tests.resilience.conftest import build_control_model

from repro.resilience import FaultInjector
from repro.service import SimulationService
from repro.service.jobs import (
    BatchJob, SingleRunJob, TransientJobError,
)
from repro.service.telemetry import RESUMED


def single_run(**overrides):
    spec = dict(
        model_factory=build_control_model, t_end=2.0, sync_interval=0.01,
    )
    spec.update(overrides)
    return SingleRunJob(**spec)


def run_job(spec, timeout=60.0):
    with SimulationService(workers=1) as service:
        handle = service.submit(spec)
        events = list(handle.stream())
        result = handle.result(timeout)
        metrics = service.metrics_snapshot()
    return result, events, metrics


def assert_single_results_bitwise(a, b):
    assert set(a.probes) == set(b.probes)
    for name in a.probes:
        assert np.array_equal(a.probes[name].times, b.probes[name].times)
        assert np.array_equal(a.probes[name].states, b.probes[name].states)
    assert a.t_final == b.t_final


class TestSingleRunResume:
    def test_crash_retry_resumes_bitwise(self, tmp_path):
        reference, __, __ = run_job(single_run())
        injector = FaultInjector(seed=5).crash_at_step(110)
        result, events, metrics = run_job(single_run(
            retries=1, backoff=0.01,
            checkpoint_dir=tmp_path, checkpoint_every_steps=40,
            fault_injector=injector,
        ))
        kinds = [e.kind for e in events]
        assert RESUMED in kinds
        resumed = next(e for e in events if e.kind == RESUMED)
        assert resumed.payload["step"] == 80  # newest interval saved
        assert resumed.payload["attempt"] == 2
        assert metrics["counters"]["jobs.resumed"] == 1
        assert metrics["counters"]["jobs.retries"] == 1
        assert_single_results_bitwise(reference, result)

    def test_seeded_crash_window_resumes_bitwise(self, tmp_path):
        reference, __, __ = run_job(single_run())
        injector = FaultInjector(seed=123).crash_between(60, 180)
        result, events, __ = run_job(single_run(
            retries=1, backoff=0.01,
            checkpoint_dir=tmp_path, checkpoint_every_steps=25,
            fault_injector=injector,
        ))
        assert injector.fired[0].kind == "crash"
        assert any(e.kind == RESUMED for e in events)
        assert_single_results_bitwise(reference, result)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_fault_recovers(self, tmp_path):
        reference, __, __ = run_job(single_run())
        injector = FaultInjector(seed=9).diverge_at_step(90)
        result, events, __ = run_job(single_run(
            retries=1, backoff=0.01,
            checkpoint_dir=tmp_path, checkpoint_every_steps=30,
            fault_injector=injector,
        ))
        assert [r.kind for r in injector.fired] == ["diverge"]
        assert any(e.kind == RESUMED for e in events)
        assert_single_results_bitwise(reference, result)

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        reference, __, __ = run_job(single_run())
        injector = FaultInjector(seed=4).crash_at_step(130)

        @dataclass
        class CorruptingJob(SingleRunJob):
            """Corrupts the newest checkpoint between attempts, like a
            torn write discovered at recovery time."""

            def execute(self, ctx):
                if ctx.handle.attempts == 2:
                    injector.corrupt_checkpoint(tmp_path)
                return super().execute(ctx)

        result, events, __ = run_job(CorruptingJob(
            model_factory=build_control_model, t_end=2.0,
            sync_interval=0.01, retries=1, backoff=0.01,
            checkpoint_dir=tmp_path, checkpoint_every_steps=40,
            fault_injector=injector,
        ))
        resumed = next(e for e in events if e.kind == RESUMED)
        assert resumed.payload["step"] == 80  # fell back from 120
        assert_single_results_bitwise(reference, result)

    def test_no_checkpoint_dir_cold_restarts(self, tmp_path):
        # without a spool the retry is a cold restart — still correct,
        # since the fired fault does not refire on attempt 2
        reference, __, __ = run_job(single_run())
        injector = FaultInjector(seed=2).crash_at_step(50)
        result, events, __ = run_job(single_run(
            retries=1, backoff=0.01, fault_injector=injector,
        ))
        assert not any(e.kind == RESUMED for e in events)
        assert_single_results_bitwise(reference, result)

    def test_exhausted_retries_fail(self, tmp_path):
        # one crash per attempt: the retry budget (1) runs out
        injector = (
            FaultInjector(seed=8)
            .crash_at_step(20)
            .crash_at_step(40, attempt=2)
        )
        with SimulationService(workers=1) as service:
            handle = service.submit(single_run(
                retries=1, backoff=0.01,
                checkpoint_dir=tmp_path, checkpoint_every_steps=10,
                fault_injector=injector,
            ))
            with pytest.raises(TransientJobError):
                handle.result(60)

    def test_explicit_resume_from_snapshot(self, tmp_path):
        # warm-start a fresh job from a previous run's checkpoint file
        from repro.resilience import CheckpointManager

        reference, __, __ = run_job(single_run())
        model = build_control_model()
        scheduler = model.scheduler(sync_interval=0.01)
        manager = CheckpointManager(tmp_path, every_steps=60, keep=1)
        manager.attach(scheduler)
        scheduler.run(1.0)
        path = manager.checkpoints()[-1]

        result, events, __ = run_job(single_run(resume_from=path))
        assert any(e.kind == RESUMED for e in events)
        assert result.t_final == reference.t_final
        # trajectories after the warm-start point are the reference's
        for name in reference.probes:
            want = reference.probes[name]
            got = result.probes[name]
            assert np.array_equal(got.times[-50:], want.times[-50:])
            assert np.array_equal(got.states[-50:], want.states[-50:])


class TestProcessExecutorResume:
    """Hard isolation: the fault kills a *worker process*; the retried
    attempt runs in a fresh process and resumes from the shared spool.
    The injector reaches each child by pickling, so attempt-pinned
    faults are what keep the crash from re-firing on the retry."""

    def test_crash_retry_resumes_across_processes(self, tmp_path):
        reference, __, __ = run_job(single_run())
        injector = FaultInjector(seed=6).crash_at_step(120)
        spec = single_run(
            retries=1, backoff=0.01,
            checkpoint_dir=tmp_path, checkpoint_every_steps=40,
            fault_injector=injector,
        )
        with SimulationService(workers=1, executor="process") as service:
            handle = service.submit(spec)
            result = handle.result(120)
            metrics = service.metrics_snapshot()
        assert metrics["counters"]["jobs.retries"] == 1
        # the spool proves the first attempt made progress before dying
        assert list(tmp_path.glob("ckpt-*.ckpt"))
        assert_single_results_bitwise(reference, result)

    def test_attempt_pinned_fault_stays_dormant_on_retry(self):
        injector = FaultInjector(seed=0).crash_at_step(10, attempt=1)
        model = build_control_model()
        scheduler = model.scheduler(sync_interval=0.01)
        injector.arm(scheduler, attempt=2)  # a retried attempt
        scheduler.run(0.5)
        assert injector.fired == []


@dataclass
class FlakyBatchJob(BatchJob):
    """Dies with a transient error right after streaming chunk
    ``die_after_chunks`` on the first attempt."""

    die_after_chunks: int = 2

    def execute(self, ctx):
        if ctx.handle.attempts == 1:
            real_emit = ctx.emit
            seen = [0]

            def emit(kind, t=float("nan"), **payload):
                real_emit(kind, t=t, **payload)
                if kind == "chunk":
                    seen[0] += 1
                    if seen[0] == self.die_after_chunks:
                        raise TransientJobError("injected worker death")

            ctx.emit = emit
        return super().execute(ctx)


class TestBatchResume:
    def loop_kwargs(self):
        import sys
        sys.path.insert(0, "tests")
        from core.test_batch import RECORDS, pid_loop_diagram

        return dict(
            diagram_factory=pid_loop_diagram, n=8, t_end=0.2,
            solver="rk4", h=2e-3, records=list(RECORDS), record_every=3,
            chunk_steps=17,
            sweeps={"pid.kp": np.linspace(0.5, 5.0, 8)},
        )

    def test_chunked_resume_is_bitwise(self, tmp_path):
        kwargs = self.loop_kwargs()
        reference, __, __ = run_job(BatchJob(**kwargs))
        result, events, metrics = run_job(FlakyBatchJob(
            retries=1, backoff=0.01, checkpoint_dir=tmp_path,
            die_after_chunks=2, **kwargs,
        ))
        resumed = next(e for e in events if e.kind == RESUMED)
        assert resumed.payload["chunks"] == 1  # died before ckpt 2 wrote
        assert metrics["counters"]["jobs.resumed"] == 1
        assert np.array_equal(reference.t, result.t)
        for label in reference.series:
            assert np.array_equal(
                reference.series[label], result.series[label],
            ), label
        assert np.array_equal(reference.final_states, result.final_states)

    def test_batch_resume_without_cache(self, tmp_path):
        # spool fingerprinting works even when the service cache is off
        kwargs = self.loop_kwargs()
        reference, __, __ = run_job(BatchJob(**kwargs))

        class NoCacheService(SimulationService):
            def __init__(self):
                super().__init__(workers=1)
                self.cache = None

        with NoCacheService() as service:
            handle = service.submit(FlakyBatchJob(
                retries=1, backoff=0.01, checkpoint_dir=tmp_path,
                die_after_chunks=3, **kwargs,
            ))
            events = list(handle.stream())
            result = handle.result(60)
        assert any(e.kind == RESUMED for e in events)
        assert np.array_equal(reference.t, result.t)
        for label in reference.series:
            assert np.array_equal(
                reference.series[label], result.series[label],
            ), label

    def test_checkpoint_keyed_before_the_sync_form_is_refused(
        self, tmp_path,
    ):
        """A batch spool written while the NumPy program sampled on a
        closed-form clock is keyed without the kernel version.  Resuming
        from it is refused by the fingerprint check, not resumed under
        the walk."""
        import dataclasses

        from repro.core.network import FlatNetwork
        from repro.resilience import (
            CheckpointManager, FingerprintMismatchError, encode_snapshot,
        )
        from repro.solvers.registry import solver_key

        kwargs = self.loop_kwargs()
        run_job(FlakyBatchJob(
            retries=1, backoff=0.01, checkpoint_dir=tmp_path / "spool",
            die_after_chunks=2, **kwargs,
        ))
        __, snapshot = CheckpointManager(tmp_path / "spool").load_latest()
        diagram = kwargs["diagram_factory"]()
        diagram.finalise()
        old_key = FlatNetwork([diagram]).plan().fingerprint(extra={
            "backend": "batch",
            "records": tuple(kwargs["records"]),
            "sweep_paths": tuple(sorted(kwargs["sweeps"])),
            "solver": solver_key(kwargs["solver"]),
        })
        assert snapshot.fingerprint != old_key

        def resume_from(fingerprint):
            path = tmp_path / f"{fingerprint[:12]}.ckpt"
            path.write_bytes(encode_snapshot(
                dataclasses.replace(snapshot, fingerprint=fingerprint),
            ))
            return run_job(BatchJob(resume_from=str(path), **kwargs))

        __, events, __ = resume_from(snapshot.fingerprint)
        assert any(e.kind == RESUMED for e in events)
        with pytest.raises(FingerprintMismatchError):
            resume_from(old_key)

    def test_native_batch_crash_retry_resumes_bitwise(self, tmp_path):
        """The C-kernel backend spools/restores the same checkpoint
        payload as the NumPy program: a mid-run worker death resumes
        bitwise against the plain-batch reference trajectory."""
        from repro.core.backend import has_c_compiler

        if not has_c_compiler():
            pytest.skip("no C compiler on this host")
        kwargs = self.loop_kwargs()
        reference, __, __ = run_job(BatchJob(**kwargs))
        result, events, metrics = run_job(FlakyBatchJob(
            retries=1, backoff=0.01, checkpoint_dir=tmp_path,
            die_after_chunks=2, backend="native-batch", **kwargs,
        ))
        assert any(e.kind == RESUMED for e in events)
        assert metrics["counters"]["backend.used.native-batch"] == 2
        assert np.array_equal(reference.t, result.t)
        for label in reference.series:
            assert np.array_equal(
                reference.series[label], result.series[label],
            ), label
        assert np.array_equal(reference.final_states, result.final_states)
