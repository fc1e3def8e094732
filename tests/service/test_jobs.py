"""Simulation jobs through the service facade.

The service must be a *transparent* wrapper: every result that comes
back through a :class:`~repro.service.SimulationService` — single hybrid
runs, vectorised batch sweeps, generated source — must be bitwise
identical to calling the underlying backend directly, whether jobs run
one at a time or sixteen at once, cold or through the warm plan cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import generate_python
from repro.core.batch import BatchSimulator
from repro.core.model import HybridModel
from repro.dataflow.diagram import Diagram
from repro.dataflow.dynamics import PID, FirstOrderLag
from repro.dataflow.math_blocks import Sum
from repro.dataflow.sources import Step
from repro.service import (
    BatchJob,
    CodegenJob,
    SimulationService,
    SingleRunJob,
)
from repro.service.telemetry import CHUNK, PROGRESS

N = 8
T_END = 0.1
H = 1e-3
RECORDS = ["plant.out"]


def loop_diagram() -> Diagram:
    d = Diagram("loop")
    d.add(Step("ref", amplitude=1.0))
    d.add(Sum("err", "+-"))
    d.add(PID("pid", kp=3.0, ki=1.5, tf=0.5))
    d.add(FirstOrderLag("plant", tau=0.4))
    d.connect("ref.out", "err.in1")
    d.connect("plant.out", "err.in2")
    d.connect("err.out", "pid.in")
    d.connect("pid.out", "plant.in")
    return d


def kp_sweep(lo: float = 0.5, hi: float = 6.0):
    return {"pid.kp": np.linspace(lo, hi, N)}


def batch_job(lo: float = 0.5, hi: float = 6.0) -> BatchJob:
    return BatchJob(
        diagram_factory=loop_diagram, n=N, t_end=T_END, solver="rk4",
        h=H, records=RECORDS, sweeps=kp_sweep(lo, hi),
    )


def direct_batch(lo: float = 0.5, hi: float = 6.0):
    sim = BatchSimulator(
        loop_diagram(), N, solver="rk4", h=H, records=RECORDS,
        sweeps=kp_sweep(lo, hi),
    )
    return sim.run(T_END)


def loop_model() -> HybridModel:
    diagram = loop_diagram()
    diagram.finalise()
    model = HybridModel("loop")
    model.default_thread.h = H
    model.add_streamer(diagram)
    model.add_probe("y", diagram.port_at("plant.out"))
    return model


def single_run_job(**overrides) -> SingleRunJob:
    options = dict(
        model_factory=loop_model, t_end=T_END, sync_interval=0.01,
        stream_slices=4,
    )
    options.update(overrides)
    return SingleRunJob(**options)


def direct_single_run():
    model = loop_model()
    model.scheduler(sync_interval=0.01).run(T_END)
    return model.probes["y"].trajectory


class TestTransparency:
    def test_batch_job_identical_to_direct_simulator(self):
        direct = direct_batch()
        with SimulationService(workers=1) as svc:
            served = svc.submit(batch_job()).result(timeout=60.0)
        assert np.array_equal(served.t, direct.t)
        assert np.array_equal(
            served.series["plant.out"], direct.series["plant.out"]
        )

    def test_single_run_job_identical_to_direct_model(self):
        direct = direct_single_run()
        with SimulationService(workers=1) as svc:
            served = svc.submit(single_run_job()).result(timeout=60.0)
        trajectory = served.probes["y"]
        assert np.array_equal(trajectory.times, direct.times)
        assert np.array_equal(trajectory.states, direct.states)
        assert served.stats["major_steps"] > 0

    def test_sixteen_concurrent_jobs_identical_to_direct(self):
        """The acceptance check: 16 jobs at once, every result bitwise
        equal to its direct-backend counterpart."""
        spans = [(0.5 + i * 0.1, 6.0 + i * 0.1) for i in range(12)]
        with SimulationService(workers=4) as svc:
            batch_handles = [
                svc.submit(batch_job(lo, hi)) for lo, hi in spans
            ]
            single_handles = [
                svc.submit(single_run_job()) for __ in range(4)
            ]
            for (lo, hi), handle in zip(spans, batch_handles):
                served = handle.result(timeout=120.0)
                direct = direct_batch(lo, hi)
                assert np.array_equal(
                    served.series["plant.out"],
                    direct.series["plant.out"],
                )
            direct_trajectory = direct_single_run()
            for handle in single_handles:
                served = handle.result(timeout=120.0)
                assert np.array_equal(
                    served.probes["y"].states, direct_trajectory.states
                )

    def test_codegen_job_identical_to_direct_generation(self):
        diagram = loop_diagram()
        diagram.finalise()
        direct = generate_python(diagram, records=RECORDS, default_h=H)
        with SimulationService(workers=1) as svc:
            served = svc.submit(CodegenJob(
                diagram_factory=loop_diagram, lang="python",
                records=RECORDS, h=H,
            )).result(timeout=60.0)
        assert served == direct


class TestWarmCache:
    def test_resubmission_skips_compilation(self):
        """The acceptance check: warm-cache resubmission must not
        recompile, verified through the cache counters."""
        spec = batch_job()
        with SimulationService(workers=1) as svc:
            first = svc.submit(spec).result(timeout=60.0)
            before = svc.cache.stats()
            again = svc.submit(spec).result(timeout=60.0)
            after = svc.cache.stats()
        assert after["compiles"] == before["compiles"]
        assert after["hits"] == before["hits"] + 1
        assert np.array_equal(
            again.series["plant.out"], first.series["plant.out"]
        )

    def test_distinct_specs_share_artefact_by_content(self):
        """Two separately built but structurally identical specs land on
        the same fingerprint: one compile, one hit."""
        with SimulationService(workers=1) as svc:
            svc.submit(batch_job()).result(timeout=60.0)
            svc.submit(batch_job()).result(timeout=60.0)
            stats = svc.cache.stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == 1

    def test_memoised_key_survives_cache_eviction(self):
        """A spec whose artefact was evicted recompiles from a fresh
        diagram (the memoised key alone is not enough) and still
        produces an identical result."""
        spec = batch_job()
        with SimulationService(workers=1) as svc:
            first = svc.submit(spec).result(timeout=60.0)
            svc.cache.clear()
            again = svc.submit(spec).result(timeout=60.0)
            stats = svc.cache.stats()
        assert stats["compiles"] == 2
        assert np.array_equal(
            again.series["plant.out"], first.series["plant.out"]
        )

    def test_different_sweep_paths_do_not_share(self):
        """The sweep *paths* are part of the cache key (the program is
        specialised on them), so sweeping a different parameter must
        compile its own artefact."""
        tau_job = BatchJob(
            diagram_factory=loop_diagram, n=N, t_end=T_END, solver="rk4",
            h=H, records=RECORDS,
            sweeps={"plant.tau": np.linspace(0.2, 0.8, N)},
        )
        with SimulationService(workers=1) as svc:
            svc.submit(batch_job()).result(timeout=60.0)
            svc.submit(tau_job).result(timeout=60.0)
            stats = svc.cache.stats()
        assert stats["compiles"] == 2
        assert stats["hits"] == 0


class TestStreaming:
    def test_batch_chunks_reassemble_to_full_result(self):
        with SimulationService(workers=1) as svc:
            handle = svc.submit(batch_job())
            chunks = [e for e in handle.stream() if e.kind == CHUNK]
            result = handle.result(timeout=60.0)
        assert len(chunks) > 1
        assert chunks[-1].payload["final"] is True
        assert all(not c.payload["final"] for c in chunks[:-1])
        t_values = np.concatenate(
            [c.payload["t_values"] for c in chunks]
        )
        series = np.vstack(
            [c.payload["series"]["plant.out"] for c in chunks]
        )
        assert np.array_equal(t_values, result.t)
        assert np.array_equal(series, result.series["plant.out"])

    def test_single_run_progress_events(self):
        # stream_slices == t_end / sync_interval: every major step emits,
        # including the final one (fraction 1.0)
        with SimulationService(workers=1) as svc:
            handle = svc.submit(single_run_job(stream_slices=10))
            events = [e for e in handle.stream() if e.kind == PROGRESS]
            handle.result(timeout=60.0)
        assert len(events) >= 4
        fractions = [e.payload["fraction"] for e in events]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        assert all("y" in e.payload["probes"] for e in events)


class TestValidation:
    def test_missing_factory_fails_job(self):
        from repro.service.jobs import JobError

        with SimulationService(workers=1) as svc:
            handle = svc.submit(BatchJob(diagram_factory=None))
            with pytest.raises(JobError):
                handle.result(timeout=60.0)

    def test_unknown_codegen_target_fails_job(self):
        from repro.service.jobs import JobError

        with SimulationService(workers=1) as svc:
            handle = svc.submit(CodegenJob(
                diagram_factory=loop_diagram, lang="fortran",
            ))
            with pytest.raises(JobError):
                handle.result(timeout=60.0)

