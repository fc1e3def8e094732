"""Every executor steps, records and cuts a run the same way.

:func:`repro.core.loop.run` is the fixed-step loop contract's
executable spec.  This suite runs each executor of one plan on probe
cases where the clamp, the ``record_every`` phase and the chunk cuts
all matter, and asserts that the record times, the step count and the
final time equal the reference stepper's, bitwise.  ``generate_c``'s
program prints its rows at ``%.9g``, so its times are compared at that
precision.  The hybrid scheduler's slices and
:func:`repro.solvers.ivp.integrate` step through
:func:`repro.core.loop.integrate`; the last section holds them to its
steps.
"""

from __future__ import annotations

import subprocess

import numpy as np
import pytest

from repro.cluster.models import cruise, lag
from repro.codegen import generate_c, generate_python
from repro.core import loop
from repro.core.backend import CompileRequest, compile_program
from repro.core.backend.native import find_c_compiler, has_c_compiler
from repro.core.batch import BatchSimulator, simulate_sequential
from repro.dataflow import (
    FirstOrderLag, Gain, Integrator, Ramp, Scope, Step, Sum, ZeroOrderHold,
)
from repro.dataflow.diagram import Diagram
from repro.solvers import integrate, make_solver

needs_cc = pytest.mark.skipif(
    not has_c_compiler(), reason="no C compiler on this host"
)

H = 0.1
T_ENDS = (0.3, 0.35, 1.0)
RECORD_EVERY = (1, 3, 7)
CHUNKS = (1, 5)
#: steps a cursor takes through ``step()`` before its ``run``
STEPS_BEFORE = 2


def probe_diagram() -> Diagram:
    """A sampled feedback loop: a cold sync, a held register and
    continuous states for every executor to carry."""
    d = Diagram("probe")
    d.add(Step("ref", amplitude=1.0))
    d.add(Sum("err", signs="+-"))
    d.add(ZeroOrderHold("adc", ts=0.25))
    d.add(Gain("ctl", k=3.0))
    d.add(FirstOrderLag("plant", tau=0.4))
    d.add(Scope("scope"))
    d.connect("ref.out", "err.in1")
    d.connect("plant.out", "err.in2")
    d.connect("err.out", "adc.in")
    d.connect("adc.out", "ctl.in")
    d.connect("ctl.out", "plant.in")
    d.connect("plant.out", "scope.in1")
    return d


def clock(t, x, hh):
    return t + hh, x


def ignore(t, x):
    return None


def reference(t_end, record_every, chunk=0, steps_before=0):
    """``(times, steps, t, cuts)`` of the reference stepper: the record
    times, the step count and the final time of a run after
    ``steps_before`` single steps, and the ``(t, steps)`` cursor of
    every chunk cut."""
    t, step, cold = 0.0, 0, True
    for __ in range(steps_before):
        t, __ = loop.step(t, None, cold, H, ignore, clock)
        step, cold = step + 1, False
    times, cuts, done = [], [], False
    while not done:
        max_steps = chunk - step % chunk if chunk else 0
        t, __, step, done, seg_times, __ = loop.run(
            t, None, step, cold, t_end, H, record_every,
            ignore, clock, ignore, max_steps,
        )
        cold = False
        times += seg_times
        if not done:
            cuts.append((t, step))
    return times, step, t, cuts


def same(got, want) -> bool:
    """Bitwise equality of two time sequences."""
    return np.array_equal(
        np.asarray(got, dtype=float), np.asarray(want, dtype=float),
    )


class TestReferenceStepper:
    """The spec itself, against hand-written expectations."""

    def test_clamped_final_step_and_final_record(self):
        times, steps, t, __ = reference(0.35, 1)
        assert times == [0.0, 0.1, 0.2, 0.1 + 0.1 + 0.1, 0.35]
        assert (steps, t) == (4, 0.35)

    def test_landing_within_eps_is_arrival(self):
        # ten steps of 0.1 fall an ulp short of 1.0: no extra short step
        times, steps, t, __ = reference(1.0, 1)
        assert steps == 10 and t == 1.0 - 2.0 ** -53
        # the clamp lands the third step of 0.1 on 0.3 exactly
        times, steps, t, __ = reference(0.3, 1)
        assert (steps, t) == (3, 0.3) and times[-2] == 0.2

    def test_record_every_phase_and_final_record(self):
        times, __, __, __ = reference(1.0, 3)
        assert len(times) == 5  # steps 0, 3, 6, 9 and the end
        times, __, __, __ = reference(0.35, 7)
        assert times == [0.0, 0.35]

    def test_phase_counts_steps_before_the_run(self):
        times, steps, __, __ = reference(1.0, 3, steps_before=STEPS_BEFORE)
        assert steps == 10 and len(times) == 4  # steps 3, 6, 9, end

    def test_cuts_do_not_move_records(self):
        whole = reference(1.0, 3)
        cut = reference(1.0, 3, chunk=5)
        assert cut[:3] == whole[:3]
        assert [steps for __, steps in cut[3]] == [5]

    def test_a_cold_cursor_syncs_once_before_stepping(self):
        synced = []
        loop.run(
            0.0, None, 0, True, 0.35, H, 1,
            lambda t, x: synced.append(t), clock, ignore,
        )
        assert synced == [0.0, 0.1, 0.2, 0.1 + 0.1 + 0.1, 0.35]

    def test_step_count_and_capacity_bound_the_run(self):
        for t_end in T_ENDS:
            times, steps, __, __ = reference(t_end, 1)
            assert loop.step_count(0.0, t_end, H) == steps
            for every in RECORD_EVERY:
                assert len(reference(t_end, every)[0]) <= (
                    loop.record_capacity(0.0, t_end, H, every)
                )


# ----------------------------------------------------------------------
# the scalar programs
# ----------------------------------------------------------------------
SCALAR = [
    "interpreter",
    "compiled-python",
    pytest.param("native-c", marks=needs_cc),
]


def scalar_program(backend, tmp_path):
    program = compile_program(
        CompileRequest(
            diagram=probe_diagram(), solver="rk4", h=H,
            cache_dir=tmp_path,
        ),
        backend,
    )
    assert program.backend == backend
    return program


@pytest.mark.parametrize("backend", SCALAR)
@pytest.mark.parametrize("record_every", RECORD_EVERY)
@pytest.mark.parametrize("t_end", T_ENDS)
def test_scalar_run(backend, t_end, record_every, tmp_path):
    result = scalar_program(backend, tmp_path).run(
        t_end, record_every=record_every,
    )
    times, steps, t, __ = reference(t_end, record_every)
    assert same(result.t, times)
    assert result.stats["steps"] == steps
    assert result.t[-1] == t


@pytest.mark.parametrize("backend", SCALAR)
@pytest.mark.parametrize("record_every", RECORD_EVERY)
@pytest.mark.parametrize("t_end", T_ENDS)
def test_scalar_step_then_run(backend, t_end, record_every, tmp_path):
    program = scalar_program(backend, tmp_path)
    stepped = [program.step() for __ in range(STEPS_BEFORE)]
    result = program.run(t_end, record_every=record_every)
    times, steps, t, __ = reference(
        t_end, record_every, steps_before=STEPS_BEFORE,
    )
    assert stepped == [H, H + H]
    assert same(result.t, times)
    assert result.stats["steps"] == steps
    assert program.t == t


# ----------------------------------------------------------------------
# the batch programs, chunked and resumed
# ----------------------------------------------------------------------
BATCH = ["batch", pytest.param("native-batch", marks=needs_cc)]


def batch_simulator(backend, tmp_path):
    sim = BatchSimulator(
        probe_diagram(), n=2, solver="rk4", h=H, backend=backend,
        native_cache_dir=tmp_path,
    )
    assert sim.backend_name == backend
    return sim


@pytest.mark.parametrize("backend", BATCH)
@pytest.mark.parametrize("record_every", RECORD_EVERY)
@pytest.mark.parametrize("t_end", T_ENDS)
def test_batch_step_then_run(backend, t_end, record_every, tmp_path):
    program = compile_program(
        CompileRequest(
            diagram=probe_diagram(), solver="rk4", h=H, n=2,
            cache_dir=tmp_path,
        ),
        backend,
    )
    assert program.backend == backend
    stepped = [program.step() for __ in range(STEPS_BEFORE)]
    result = program.run(t_end, record_every=record_every)
    times, steps, t, __ = reference(
        t_end, record_every, steps_before=STEPS_BEFORE,
    )
    assert stepped == [H, H + H]
    assert same(result.t, times)
    assert result.stats["minor_steps"] == steps
    assert program.t == t


@pytest.mark.parametrize("backend", BATCH)
def test_batch_step_takes_h_unclamped(backend, tmp_path):
    # from t = 0.1 + 0.1 + 0.1, (t + 0.1) - t is an ulp short of 0.1: a
    # step clamped to the end of a run drifts from the interpreter's
    # (on this ramp's integral, by the seventh step)
    def ramp_integral():
        d = Diagram("ramp")
        d.add(Ramp("ramp", slope=3.0))
        d.add(Integrator("integral"))
        d.connect("ramp.out", "integral.in")
        return d

    programs = [
        compile_program(CompileRequest(
            diagram=ramp_integral(), solver="rk4", h=H, cache_dir=tmp_path,
        ), name)
        for name in ("interpreter", backend)
    ]
    for __ in range(8):
        reached = [program.step() for program in programs]
        assert reached[0] == reached[1]
        assert np.array_equal(programs[0].x, programs[1].x[0])


@pytest.mark.parametrize("backend", BATCH)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("record_every", RECORD_EVERY)
@pytest.mark.parametrize("t_end", T_ENDS)
def test_batch_chunked_with_resume(
    backend, t_end, record_every, chunk, tmp_path,
):
    times, steps, t, cuts = reference(t_end, record_every, chunk)
    chunks = list(batch_simulator(backend, tmp_path).run_chunked(
        t_end, record_every=record_every, chunk_steps=chunk,
    ))
    assert [(c.t_now, c.steps) for c in chunks[:-1]] == cuts
    assert (chunks[-1].t_now, chunks[-1].steps) == (t, steps)
    assert same(np.concatenate([c.t for c in chunks]), times)

    # a fresh simulator resumed at the first cut finishes the same run
    if cuts:
        resumed = list(batch_simulator(backend, tmp_path).run_chunked(
            t_end, record_every=record_every, chunk_steps=chunk,
            resume=chunks[0].resume,
        ))
        assert [(c.t_now, c.steps) for c in resumed] == [
            (c.t_now, c.steps) for c in chunks[1:]
        ]
        assert same(
            np.concatenate([chunks[0].t] + [c.t for c in resumed]), times,
        )


@pytest.mark.parametrize("record_every", RECORD_EVERY)
@pytest.mark.parametrize("t_end", T_ENDS)
def test_simulate_sequential(t_end, record_every):
    result = simulate_sequential(
        probe_diagram, 1, t_end, solver="rk4", h=H,
        record_every=record_every,
    )
    times, steps, __, __ = reference(t_end, record_every)
    assert same(result.t, times)
    assert result.stats["minor_steps"] == steps


# ----------------------------------------------------------------------
# the generated programs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("record_every", RECORD_EVERY)
@pytest.mark.parametrize("t_end", T_ENDS)
def test_generated_python(t_end, record_every):
    namespace = {}
    exec(compile(
        generate_python(probe_diagram(), default_h=H), "<probe>", "exec",
    ), namespace)
    out = namespace["simulate"](t_end, record_every=record_every)
    assert same(out["t"], reference(t_end, record_every)[0])


@needs_cc
@pytest.mark.parametrize("t_end", T_ENDS)
def test_generated_c(t_end, tmp_path):
    source = tmp_path / "probe.c"
    source.write_text(generate_c(probe_diagram(), default_h=H, t_end=t_end))
    binary = tmp_path / "probe"
    subprocess.run(
        [find_c_compiler(), "-O2", "-o", str(binary), str(source), "-lm"],
        check=True, capture_output=True,
    )
    rows = subprocess.run(
        [str(binary)], check=True, capture_output=True, text=True,
    ).stdout.split()[1:]
    printed = [row.split(",")[0] for row in rows]
    assert printed == [f"{t:.9g}" for t in reference(t_end, 1)[0]]


# ----------------------------------------------------------------------
# the hybrid scheduler's slices and ivp.integrate
# ----------------------------------------------------------------------
HYBRID_MODELS = {"cruise": cruise, "lag": lag}
#: the cluster models' thread step
HYBRID_H = 0.01


def built_thread(build, solver="rk4"):
    """``(scheduler, thread)`` of a built capsule-free model whose one
    streamer thread steps with ``solver``."""
    model = build(h=HYBRID_H)
    scheduler = model.scheduler()
    scheduler.build()
    thread = model.default_thread
    thread.binding.rebind(solver)
    return scheduler, thread


def traced(solver_step, calls):
    """``solver_step`` recording each step's ``(t, h, t_next, y_next)``."""
    def step(f, t, y, h):
        result = solver_step(f, t, y, h)
        calls.append((t, h, result.t, result.y.copy()))
        return result
    return step


def same_steps(got, want) -> bool:
    return len(got) == len(want) and all(
        g[:3] == w[:3] and np.array_equal(g[3], w[3])
        for g, w in zip(got, want)
    )


@pytest.mark.parametrize("syncs", (1, 3, 7))
@pytest.mark.parametrize("name", sorted(HYBRID_MODELS))
def test_hybrid_slices_are_interpreter_runs(name, syncs):
    """A capsule-free single-thread hybrid run is the interpreter
    program's ``run`` from each sync point to the next, bitwise: the
    slice clamps its last step at ``t0 + sync``, and the scheduler's
    clock moves to that sync point itself, not to where the steps'
    clock landed within rounding of it."""
    build = HYBRID_MODELS[name]
    program = compile_program(
        CompileRequest(
            diagram=build(h=HYBRID_H).streamers[0], solver="rk4",
            h=HYBRID_H,
        ),
        "interpreter",
    )
    scheduler = build(h=HYBRID_H).scheduler(sync_interval=syncs * HYBRID_H)
    reached = []

    def compare(t):
        program.run(t)
        assert abs(program.t - t) <= loop.EPS
        assert np.array_equal(program.x, scheduler.state), t
        cursor = program.snapshot_state()
        cursor["t"] = t
        program.restore_state(cursor)
        reached.append(t)

    scheduler.on_major_step = compare
    scheduler.run(1.0)
    assert reached[-1] == 1.0 and len(reached) == -(-100 // syncs)


@pytest.mark.parametrize("solver", ("rk4", "rk45"))
def test_slice_and_ivp_take_the_loops_steps(solver):
    scheduler, thread = built_thread(lag, solver)
    f, y0 = thread.plan.rhs, scheduler.state.copy()
    t0, t1, h = 0.0, 1.3, 0.07

    want = []
    reference = make_solver(solver)
    __, y, h_next, steps = loop.integrate(
        traced(reference.step, want), f, t0, y0.copy(), t1, h,
        reference.adaptive,
    )
    assert steps == len(want) and want[-1][2] == t1

    got = []
    stepper = make_solver(solver)
    stepper.step = traced(stepper.step, got)
    result = integrate(f, y0, t0, t1, stepper, h)
    assert same_steps(got, want) and result.steps == steps
    assert same([t for t, __, __, __ in want] + [t1], result.trajectory.times)

    got = []
    thread.binding.step = traced(thread.binding.step, got)
    thread.h = h
    state = thread.integrate_slice(y0.copy(), t0, t1)
    assert same_steps(got, want) and thread.minor_steps == steps
    assert np.array_equal(state, y) and thread.h == h_next


def test_slice_step_count_on_a_seeded_grid():
    """A fixed-step slice takes ``step_count`` steps, give or take the
    one the accumulated clock may add or save, and ends on ``t1`` up to
    the slice rule's tolerance, never past it."""
    scheduler, thread = built_thread(lag, "euler")
    calls = []
    thread.binding.step = traced(thread.binding.step, calls)
    rng = np.random.default_rng(22)
    starts = (0.0, 0.3, 7.0, 140.4, -2e3, 1e3, 16383.9, 5e4)
    grid = [
        (t0, h, t0 + h * rng.uniform(0.5, 40.0))
        for t0 in starts
        for h in 10.0 ** rng.uniform(-3.0, 0.0, size=6)
    ]
    assert any(abs(t1) >= 1e3 for __, __, t1 in grid)
    for t0, h, t1 in grid:
        del calls[:]
        thread.h = h
        thread.integrate_slice(scheduler.state.copy(), t0, t1)
        assert abs(len(calls) - loop.step_count(t0, t1, h)) <= 1
        reached = calls[-1][2]
        assert 0.0 <= t1 - reached <= loop.SLICE_RTOL * max(1.0, abs(t1))
