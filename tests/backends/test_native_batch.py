"""The native-batch backend: N-instance C kernels, sharded.

Acceptance properties:

* bitwise identity against ``simulate_sequential`` at O0/O1 (and at O2
  unless the fuser actually reassociated, where a tolerance applies),
  including the sampled (ZOH) sync path;
* chunked resume — ``run_chunked(resume=...)`` and the adapter's
  snapshot/restore — continues bitwise mid-run;
* any shard count produces identical bits (property-tested);
* one compiled artifact serves every batch size (N-independent key);
* no compiler never fails a run: the simulator demotes to the NumPy
  program and counts ``backend.fallback``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import (
    CompileRequest,
    available_backends,
    compile_program,
    fallback_chain,
    has_c_compiler,
)
from repro.core.backend.nativebatch import shard_bounds
from repro.core.batch import (
    BatchSimulator,
    merge_chunks,
    reset_shared_program_cache,
    shared_program_cache,
    simulate_sequential,
)
from repro.dataflow import (
    PID,
    FirstOrderLag,
    Gain,
    SecondOrderSystem,
    Sine,
    Step,
    Sum,
    ZeroOrderHold,
)
from repro.dataflow.diagram import Diagram
from repro.service import MetricsRegistry

H = 1.0 / 512.0  # binary-exact step: no last-ulp drift from clamping
T_END = 0.25

needs_cc = pytest.mark.skipif(
    not has_c_compiler(), reason="no C compiler on this host"
)


def pid_loop_diagram() -> Diagram:
    d = Diagram("loop")
    d.add(Step("ref", amplitude=1.0))
    d.add(Sum("err", signs="+-"))
    d.add(PID("pid", kp=3.0, ki=1.5, tf=0.5))
    d.add(FirstOrderLag("plant", tau=0.4))
    d.connect("ref.out", "err.in1")
    d.connect("plant.out", "err.in2")
    d.connect("err.out", "pid.in")
    d.connect("pid.out", "plant.in")
    return d


def sampled_diagram() -> Diagram:
    """Continuous states plus a zero-order hold: the statement-replica
    sync path the kernel must replay bitwise.  (Feed-forward: the
    batch-vs-sequential bitwise guarantee covers loop-free sampled
    topologies; for loops see ``test_zoh_loop_matches_numpy_batch``.)"""
    d = Diagram("servo")
    d.add(Sine("ref", amplitude=1.0, freq=0.8))
    d.add(ZeroOrderHold("adc", ts=0.02))
    d.add(Gain("ctl", k=4.0))
    d.add(SecondOrderSystem("servo", omega=6.0, zeta=0.5))
    d.connect("ref.out", "adc.in")
    d.connect("adc.out", "ctl.in")
    d.connect("ctl.out", "servo.in")
    return d


def zoh_loop_diagram() -> Diagram:
    d = Diagram("zloop")
    d.add(Sine("ref", amplitude=1.0, freq=0.8))
    d.add(Sum("err", signs="+-"))
    d.add(ZeroOrderHold("adc", ts=0.02))
    d.add(Gain("ctl", k=4.0))
    d.add(SecondOrderSystem("servo", omega=6.0, zeta=0.5))
    d.connect("ref.out", "err.in1")
    d.connect("servo.out", "err.in2")
    d.connect("err.out", "adc.in")
    d.connect("adc.out", "ctl.in")
    d.connect("ctl.out", "servo.in")
    return d


def fusable_diagram() -> Diagram:
    """A gain chain the O2 fuser reassociates (fuse.* counts > 0)."""
    d = Diagram("chain")
    d.add(Step("u", amplitude=1.0))
    prev = "u.out"
    for i in range(4):
        d.add(Gain(f"g{i}", k=1.1 + 0.1 * i))
        d.connect(prev, f"g{i}.in")
        prev = f"g{i}.out"
    d.add(FirstOrderLag("plant", tau=0.3))
    d.connect(prev, "plant.in")
    return d


def kp_sweep(n: int):
    return {"pid.kp": np.linspace(0.5, 5.0, n)}


def native_sim(factory, n, sweeps=None, **overrides):
    kwargs = dict(
        n=n, solver="rk4", h=H, sweeps=sweeps,
        backend="native-batch", cache=False,
    )
    kwargs.update(overrides)
    return BatchSimulator(factory(), **kwargs)


def assert_batch_bitwise(reference, candidate):
    assert np.array_equal(reference.t, candidate.t)
    assert set(reference.series) == set(candidate.series)
    for label in sorted(reference.series):
        assert np.array_equal(
            reference.series[label], candidate.series[label]
        ), f"series {label} diverged"
    assert np.array_equal(reference.final_states, candidate.final_states)


# ----------------------------------------------------------------------
# registry shape (runs with or without a toolchain)
# ----------------------------------------------------------------------
class TestRegistry:
    def test_native_batch_is_registered(self):
        assert "native-batch" in available_backends()

    def test_fallback_chain_demotes_to_numpy_batch(self):
        assert fallback_chain("native-batch") == ("native-batch", "batch")

    def test_shard_bounds_partition_contiguously(self):
        for n in (1, 2, 7, 16, 100):
            for shards in (1, 2, 3, 8, 200):
                bounds = shard_bounds(n, shards)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                assert all(lo < hi for lo, hi in bounds)
                assert all(
                    prev[1] == nxt[0]
                    for prev, nxt in zip(bounds, bounds[1:])
                )
                sizes = [hi - lo for lo, hi in bounds]
                assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------
# bitwise parity against N sequential interpreter runs
# ----------------------------------------------------------------------
@needs_cc
class TestBitwiseParity:
    N = 9

    @pytest.mark.parametrize("opt_level", [0, 1])
    @pytest.mark.parametrize(
        "factory", [pid_loop_diagram, sampled_diagram],
        ids=["pid_loop", "sampled_zoh"],
    )
    def test_matches_sequential(self, factory, opt_level):
        sweeps = kp_sweep(self.N) if factory is pid_loop_diagram else None
        sim = native_sim(factory, self.N, sweeps, opt_level=opt_level)
        assert sim.backend_name == "native-batch", \
            sim.backend_fallback_reason
        result = sim.run(T_END)
        reference = simulate_sequential(
            factory, self.N, T_END, solver="rk4", h=H, sweeps=sweeps,
        )
        assert_batch_bitwise(reference, result)

    @pytest.mark.parametrize("solver", ["euler", "heun", "rk4"])
    def test_every_kernel_solver(self, solver):
        sweeps = kp_sweep(5)
        sim = native_sim(pid_loop_diagram, 5, sweeps, solver=solver)
        assert sim.backend_name == "native-batch"
        result = sim.run(T_END)
        reference = simulate_sequential(
            pid_loop_diagram, 5, T_END, solver=solver, h=H, sweeps=sweeps,
        )
        assert_batch_bitwise(reference, result)

    def test_o2_within_reassociation_tolerance(self):
        sim = native_sim(fusable_diagram, 4, opt_level=2)
        assert sim.backend_name == "native-batch"
        result = sim.run(T_END)
        reference = simulate_sequential(
            fusable_diagram, 4, T_END, solver="rk4", h=H,
        )
        assert np.array_equal(reference.t, result.t)
        for label in reference.series:
            np.testing.assert_allclose(
                result.series[label], reference.series[label],
                rtol=1e-9, atol=1e-9,
            )

    def test_matches_numpy_batch_program_bitwise(self):
        sweeps = kp_sweep(self.N)
        native = native_sim(pid_loop_diagram, self.N, sweeps).run(T_END)
        numpy_batch = BatchSimulator(
            pid_loop_diagram(), n=self.N, solver="rk4", h=H,
            sweeps=sweeps, cache=False,
        ).run(T_END)
        assert_batch_bitwise(numpy_batch, native)

    def test_zoh_loop_matches_numpy_batch(self):
        """Sampled block inside a feedback loop: the kernel replicates
        the batch program's sync semantics exactly (the reference for
        this topology, where the per-instance interpreter associates
        the loop algebra differently at the last ulp)."""
        native = native_sim(zoh_loop_diagram, self.N).run(T_END)
        numpy_batch = BatchSimulator(
            zoh_loop_diagram(), n=self.N, solver="rk4", h=H, cache=False,
        ).run(T_END)
        assert_batch_bitwise(numpy_batch, native)


# ----------------------------------------------------------------------
# chunked resume / checkpoint parity
# ----------------------------------------------------------------------
@needs_cc
class TestChunkedResume:
    N = 6

    def test_chunk_concatenation_is_bitwise(self):
        sweeps = kp_sweep(self.N)
        full = native_sim(pid_loop_diagram, self.N, sweeps).run(T_END)
        chunks = list(
            native_sim(pid_loop_diagram, self.N, sweeps).run_chunked(
                T_END, chunk_steps=23, record_every=3,
            )
        )
        assert len(chunks) > 2
        assert chunks[-1].final and not chunks[0].final
        merged = merge_chunks(chunks, self.N)
        coarse = native_sim(pid_loop_diagram, self.N, sweeps).run(
            T_END, record_every=3,
        )
        assert_batch_bitwise(coarse, merged)
        assert np.array_equal(full.final_states, merged.final_states)

    def test_resume_round_trip_is_bitwise(self):
        sweeps = kp_sweep(self.N)
        reference = list(
            native_sim(pid_loop_diagram, self.N, sweeps).run_chunked(
                T_END, chunk_steps=17,
            )
        )
        it = native_sim(pid_loop_diagram, self.N, sweeps).run_chunked(
            T_END, chunk_steps=17,
        )
        first = next(it)
        it.close()
        assert first.resume is not None
        resumed = list(
            native_sim(pid_loop_diagram, self.N, sweeps).run_chunked(
                T_END, chunk_steps=17, resume=first.resume,
            )
        )
        merged = merge_chunks([first, *resumed], self.N)
        assert_batch_bitwise(
            merge_chunks(reference, self.N), merged,
        )

    def test_resume_round_trip_across_sampled_sync(self):
        chunks = []
        it = native_sim(sampled_diagram, self.N).run_chunked(
            T_END, chunk_steps=29,
        )
        first = next(it)
        it.close()
        chunks.append(first)
        # a fresh simulator: held registers travel in the resume blob
        chunks.extend(
            native_sim(sampled_diagram, self.N).run_chunked(
                T_END, chunk_steps=29, resume=first.resume,
            )
        )
        merged = merge_chunks(chunks, self.N)
        uninterrupted = native_sim(sampled_diagram, self.N).run(T_END)
        assert_batch_bitwise(uninterrupted, merged)

    def test_native_resume_blob_loads_into_numpy_program(self):
        """Demotion mid-job keeps checkpoints usable: a native resume
        point restores into the NumPy program bitwise."""
        it = native_sim(sampled_diagram, self.N).run_chunked(
            T_END, chunk_steps=29,
        )
        first = next(it)
        it.close()
        numpy_rest = list(
            BatchSimulator(
                sampled_diagram(), n=self.N, solver="rk4", h=H,
                cache=False,
            ).run_chunked(T_END, chunk_steps=29, resume=first.resume)
        )
        merged = merge_chunks([first, *numpy_rest], self.N)
        uninterrupted = native_sim(sampled_diagram, self.N).run(T_END)
        assert_batch_bitwise(uninterrupted, merged)

    def test_adapter_snapshot_restore_mid_run(self):
        request = CompileRequest(
            diagram=pid_loop_diagram(), solver="rk4", h=H, n=self.N,
            sweeps=kp_sweep(self.N),
        )
        program = compile_program(request, "native-batch")
        assert program.backend == "native-batch"
        full = program.run(T_END)
        program.reset()
        first = program.run(T_END / 2)
        blob = program.snapshot_state()
        fresh = compile_program(
            CompileRequest(
                diagram=pid_loop_diagram(), solver="rk4", h=H,
                n=self.N, sweeps=kp_sweep(self.N),
            ),
            "native-batch",
        )
        fresh.restore_state(blob)
        second = fresh.run(T_END)
        t = np.concatenate([first.t, second.t[1:]])
        assert np.array_equal(full.t, t)
        for label in full.series:
            series = np.concatenate(
                [first.series[label], second.series[label][1:]]
            )
            assert np.array_equal(full.series[label], series), label
        assert np.array_equal(full.final_state, second.final_state)


# ----------------------------------------------------------------------
# shard invariance (property-tested)
# ----------------------------------------------------------------------
@needs_cc
class TestShardInvariance:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=24),
        shards=st.integers(min_value=1, max_value=8),
        lo=st.floats(min_value=0.25, max_value=4.0),
        hi=st.floats(min_value=4.5, max_value=9.0),
    )
    def test_sweep_layout_stable_across_shard_counts(
        self, n, shards, lo, hi
    ):
        """Any shard count reads the same parameter doubles and writes
        the same result bits — the SweepVar row layout is shard-blind."""
        sweeps = {"pid.kp": np.linspace(lo, hi, n)}
        t_end = 16 * H
        baseline = native_sim(
            pid_loop_diagram, n, sweeps, shards=1,
        )
        assert baseline.backend_name == "native-batch"
        reference = baseline.run(t_end)
        sharded = native_sim(
            pid_loop_diagram, n, sweeps, shards=shards,
        )
        assert sharded.shards == min(shards, n)
        assert_batch_bitwise(reference, sharded.run(t_end))


# ----------------------------------------------------------------------
# artifact reuse and demotion
# ----------------------------------------------------------------------
@needs_cc
class TestArtifactAndFallback:
    def test_one_artifact_serves_every_n(self, tmp_path):
        sims = [
            native_sim(
                pid_loop_diagram, n, kp_sweep(n), native_cache_dir=tmp_path,
            )
            for n in (2, 7, 64)
        ]
        paths = {sim._native.so_path for sim in sims}
        assert len(paths) == 1
        assert [sim._native.cache_hit for sim in sims] == [
            False, True, True,
        ]

    def test_x0_override_reuses_artifact_bitwise(self, tmp_path):
        n = 5
        x0 = np.linspace(-0.5, 0.5, n * 3).reshape(n, 3)
        sim = native_sim(
            pid_loop_diagram, n, kp_sweep(n), x0=x0,
            native_cache_dir=tmp_path,
        )
        result = sim.run(T_END)
        reference = BatchSimulator(
            pid_loop_diagram(), n=n, solver="rk4", h=H,
            sweeps=kp_sweep(n), x0=x0, cache=False,
        ).run(T_END)
        assert_batch_bitwise(reference, result)

    def test_disable_env_demotes_with_metric(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        metrics = MetricsRegistry()
        sim = BatchSimulator(
            pid_loop_diagram(), n=4, solver="rk4", h=H,
            sweeps=kp_sweep(4), backend="native-batch", cache=False,
            metrics=metrics,
        )
        assert sim.backend_name == "batch"
        assert "compiler" in sim.backend_fallback_reason
        assert metrics.counter("backend.fallback").value == 1
        assert (
            metrics.counter("backend.fallback.native-batch").value == 1
        )
        result = sim.run(T_END)  # the run itself must still succeed
        reference = simulate_sequential(
            pid_loop_diagram, 4, T_END, solver="rk4", h=H,
            sweeps=kp_sweep(4),
        )
        assert_batch_bitwise(reference, result)

    def test_ladder_demotes_to_numpy_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        metrics = MetricsRegistry()
        program = compile_program(
            CompileRequest(
                diagram=pid_loop_diagram(), solver="rk4", h=H, n=3,
            ),
            "native-batch", metrics=metrics,
        )
        assert program.backend == "batch"
        assert program.requested == "native-batch"
        assert metrics.counter("backend.fallback").value >= 1


# ----------------------------------------------------------------------
# shared program cache cap (satellite)
# ----------------------------------------------------------------------
class TestProgramCacheCap:
    def test_cap_evicts_and_counts(self, monkeypatch):
        monkeypatch.setattr("repro.core.batch.PROGRAM_CACHE_CAP", 2)
        reset_shared_program_cache()
        try:
            cache = shared_program_cache()
            assert cache.capacity == 2
            for amplitude in (1.0, 2.0, 3.0):
                d = Diagram(f"cap{amplitude:g}")
                d.add(Step("u", amplitude=amplitude))
                d.add(FirstOrderLag("plant", tau=0.4))
                d.connect("u.out", "plant.in")
                BatchSimulator(d, n=2, solver="rk4", h=H)
            assert len(cache) == 2
            assert shared_program_cache().evictions == 1
        finally:
            reset_shared_program_cache()

    def test_reset_rebuilds_with_default_cap(self):
        reset_shared_program_cache()
        try:
            assert shared_program_cache().capacity == 64
        finally:
            reset_shared_program_cache()
