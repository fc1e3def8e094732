"""Block parameters reach the native-c kernel as data, not as C literals.

The scalar kernel is lowered with :class:`~repro.codegen.common.
CParamLang`: each parameter becomes ``P[j]`` in a vector the program
owns, so models that differ only in their values render one source and
run gcc once.  Zero and signed powers of two stay literals, which keeps
gcc's constant folding (and the kernel's speed).  gcc runs are counted
through the logging ``$CC`` wrapper of ``test_native_cache``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from benchmarks.conftest import pid_plant_diagram
from repro.cluster.models import cruise
from repro.codegen.common import CParamLang, keeps_literal
from repro.core.backend import CompileRequest, compile_program
from repro.core.backend.base import lower_request
from repro.core.backend.native import has_c_compiler, render_c_kernel
from repro.resilience import CheckpointManager, Snapshot
from repro.resilience.codec import SNAPSHOT_VERSION
from tests.backends.test_native_cache import make_counting_cc

needs_cc = pytest.mark.skipif(
    not has_c_compiler(), reason="no C compiler on this host"
)

#: cruise setpoints, none of them a power of two
SETPOINTS = (22.345, 19.5, 27.125)
H = 1.0 / 128.0  # binary-exact, so split runs splice bitwise
T_END = 2.0


def cruise_diagram(setpoint):
    """The cruise-control loop's dataflow diagram (service-mix's
    ``cruise-native`` model)."""
    return cruise(setpoint, h=H).streamers[0]


def compile_cruise(setpoint, backend, cache_dir=None):
    program = compile_program(CompileRequest(
        diagram=cruise_diagram(setpoint), records=["car.out"],
        solver="rk4", h=H, cache_dir=cache_dir,
    ), backend)
    assert program.backend == backend
    return program


def assert_bitwise(ref, got):
    assert np.array_equal(ref.t, got.t)
    for label in ref.series:
        assert np.array_equal(ref.series[label], got.series[label]), label
    assert np.array_equal(ref.final_state, got.final_state)


class TestLiteralRule:
    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -4.0, 2.0 ** -1074],
    )
    def test_zero_and_powers_of_two_stay_literal(self, value):
        lang = CParamLang()
        assert keeps_literal(value)
        assert lang.num(value) == repr(value)
        assert lang.params == []

    @pytest.mark.parametrize(
        "value", [0.4, 3.0, 22.345, -0.1, float("inf"), float("-inf")],
    )
    def test_other_values_are_lifted(self, value):
        lang = CParamLang()
        assert not keeps_literal(value)
        assert lang.num(value) == "P[0]"
        assert lang.num(value) == "P[1]"  # a slot per use, not per value
        assert lang.params == [value, value]

    def test_nan_is_lifted(self):
        lang = CParamLang()
        assert lang.num(float("nan")) == "P[0]"
        assert np.isnan(lang.params[0])

    def test_loop_source_keeps_its_unity_gain_chain(self):
        lang = CParamLang()
        model = lower_request(CompileRequest(
            diagram=pid_plant_diagram(200), records=["plant.out"],
        ), lang)
        source = render_c_kernel(model, "rk4")
        # 200 unity pad gains, rendered in kernel_deriv, kernel_outvals
        # and (no sync rows here) nowhere else
        assert source.count("= 1.0 * ") == 2 * 200
        # only the PID's kp and ki and the plant's tau are lifted
        assert sorted(lang.params) == [0.4, 1.5, 3.0]
        assert "P[2]" in source and "P[3]" not in source

    def test_source_holds_structure_only(self):
        lang = CParamLang()
        model = lower_request(CompileRequest(
            diagram=cruise_diagram(SETPOINTS[0]), records=["car.out"],
        ), lang)
        source = render_c_kernel(model, "rk4")
        assert "cruise" not in source
        assert "X0" not in source and "H0" not in source
        assert repr(SETPOINTS[0]) not in source
        assert SETPOINTS[0] in lang.params


@needs_cc
class TestOneBuildPerStructure:
    def test_three_setpoints_run_gcc_once(self, tmp_path, monkeypatch):
        cc = make_counting_cc(tmp_path, monkeypatch)
        cache = tmp_path / "cache"
        programs = []
        for setpoint in SETPOINTS:
            program = compile_cruise(setpoint, "native-c", cache)
            got = program.run(T_END)
            ref = compile_cruise(setpoint, "interpreter").run(T_END)
            assert_bitwise(ref, got)
            programs.append((program, got))
        assert len({program.source for program, __ in programs}) == 1
        assert [got.stats["artifact_cache_hit"] for __, got in programs] == [
            False, True, True,
        ]
        assert len(cc.runs()) == 1
        # the setpoints really reached the kernel (the car saturates at
        # first, but the PID's integral state tells them apart)
        assert len({tuple(got.final_state) for __, got in programs}) == 3

    def test_programs_sharing_one_so_run_at_once(self, tmp_path):
        """Two programs on one artifact, stepped from two threads at
        once, each equal their own interpreter run: the kernel keeps no
        parameter state of its own."""
        cache = tmp_path / "cache"
        pair = [compile_cruise(sp, "native-c", cache) for sp in SETPOINTS[:2]]
        assert pair[0].so_path == pair[1].so_path
        chunks = 40
        barrier = threading.Barrier(2)
        results = [[], []]
        errors = []

        def drive(index):
            try:
                barrier.wait(timeout=30)
                for chunk in range(1, chunks + 1):
                    results[index].append(
                        pair[index].run(chunk * T_END / chunks)
                    )
            except Exception as exc:  # reported below, with its type
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=drive, args=(i,)) for i in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for setpoint, runs in zip(SETPOINTS, results):
            ref = compile_cruise(setpoint, "interpreter")
            for chunk, got in enumerate(runs, start=1):
                assert_bitwise(ref.run(chunk * T_END / chunks), got)

    def test_snapshot_refused_by_other_parameter_values(self, tmp_path):
        cache = tmp_path / "cache"
        program = compile_cruise(SETPOINTS[0], "native-c", cache)
        program.run(T_END / 2)
        manager = CheckpointManager(tmp_path / "spool", every_steps=1)
        manager.write(Snapshot(
            version=SNAPSHOT_VERSION, fingerprint=program.fingerprint(),
            t=program.t, step=program._step, kind="backend-program",
            payload=program.snapshot_state(),
        ))
        __, snapshot = manager.load_latest()
        retuned = compile_cruise(SETPOINTS[1], "native-c", cache)
        same = compile_cruise(SETPOINTS[0], "native-c", cache)
        assert retuned.so_path == same.so_path == program.so_path
        assert snapshot.fingerprint != retuned.fingerprint()
        assert snapshot.fingerprint == same.fingerprint()


@needs_cc
class TestProgramBuffers:
    """The program converts its state, held and parameter buffers to
    pointers once, and again whenever ``reset`` or ``restore_state``
    replaces them: every entry point must follow the new buffers."""

    def test_entry_points_follow_reset_and_restore(self, tmp_path):
        program = compile_cruise(SETPOINTS[0], "native-c", tmp_path)
        ref = compile_cruise(SETPOINTS[0], "interpreter")
        pair = (ref, program)
        for each in pair:
            each.run(T_END / 4)
        states = [each.snapshot_state() for each in pair]
        for __ in range(8):
            assert program.step() == ref.step()
        for each, state in zip(pair, states):
            each.restore_state(state)  # rewinds onto fresh buffers
        for __ in range(8):
            assert program.step() == ref.step()
            assert np.array_equal(program.x, ref.x)
        probe = np.array([3.0, -1.0, 0.25])
        assert np.array_equal(program.rhs(0.5, probe), ref.rhs(0.5, probe))
        for each in pair:
            each.reset()
        assert_bitwise(ref.run(T_END), program.run(T_END))


@needs_cc
class TestHybridRetune:
    def test_retune_between_runs_rebinds_without_gcc(
        self, tmp_path, monkeypatch,
    ):
        cc = make_counting_cc(tmp_path, monkeypatch)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))

        def two_phase(backend):
            model = cruise(SETPOINTS[0], h=H)
            scheduler = model.run(
                until=T_END / 2, sync_interval=H, backend=backend,
            )
            before = scheduler._backend_program
            model.streamers[0].subs["setpoint"].params["value"] = (
                SETPOINTS[2]
            )
            scheduler.run(T_END)
            return model.probe("v"), scheduler, before

        ref, __, __ = two_phase(None)
        got, scheduler, first = two_phase("native-c")
        assert scheduler.backend_info["effective"] == "native-c"
        rebound = scheduler._backend_program
        assert rebound is not first
        assert (first.cache_hit, rebound.cache_hit) == (False, True)
        assert rebound.so_path == first.so_path
        assert len(cc.runs()) == 1
        assert np.array_equal(ref.times, got.times)
        assert np.array_equal(ref.states, got.states)
