"""Experiment S9 — execution-backend step-rate on the 204-block loop.

The same stress shape as S8 (`pid_plant_diagram(200)`), now run through
the unified :mod:`repro.core.backend` surface: the plan interpreter, the
exec'd Python kernel and (where a C compiler exists) the ctypes-loaded
native kernel, each at O0 and O2.  All programs consume the same
optimized :class:`ExecutionPlan`, so the comparison isolates *execution
strategy* from *plan shape* — and every compiled run is re-asserted
bitwise against the interpreter before its rate counts.

Acceptance bars: ``compiled-python`` >= 5x the interpreter step-rate
at O2; and, where a C compiler exists, ``native-c`` at O0 reaches at
least half its own O2 rate.  The second bar compares two kernels of one
run on one host, so it holds on any hardware: the O0 plan keeps its 200
unity gains, and only gcc folding their ``1.0 *`` literals keeps that
kernel level with the O2 one (lifting those literals into the parameter
vector costs about 10x).  Headline rates land in ``BENCH_S9.json``.
"""

import time

import pytest

import numpy as np

from benchmarks.conftest import pid_plant_diagram
from repro.core.backend import (
    CompileRequest, compile_program, has_c_compiler,
)

PAD = 200          # 4 rig blocks + 200 pad gains = the 204-block loop
H = 2e-3
T_END = 0.5
RECORDS = ["plant.out"]
WARM_T = 0.02
#: the native pace bar's run: 1000 steps, best of a few alternating
#: repeats per level, so one scheduler hiccup cannot fail it
PACE_T_END = 2.0
PACE_REPEATS = 5
PACE_BAR = 0.5

BACKENDS = ["interpreter", "compiled-python"]
if has_c_compiler():
    BACKENDS.append("native-c")


def build_program(backend, level, cache_dir):
    request = CompileRequest(
        diagram=pid_plant_diagram(PAD), records=RECORDS,
        solver="rk4", h=H, opt_level=level, cache_dir=cache_dir,
    )
    program = compile_program(request, backend)
    assert program.backend == backend
    return program


def step_rate(program):
    """Major steps per second of one compiled program, warmed."""
    program.run(WARM_T)
    program.reset()
    start = time.perf_counter()
    result = program.run(T_END)
    wall = time.perf_counter() - start
    return (T_END / H) / wall, result


@pytest.fixture(scope="module")
def native_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("s9-native-cache")


def test_s9_backend_step_rates(report, bench_json, native_cache):
    rates = {}
    results = {}
    for level in (0, 2):
        for backend in BACKENDS:
            rate, result = step_rate(
                build_program(backend, level, native_cache)
            )
            rates[(backend, level)] = rate
            results[(backend, level)] = result

    # rates only count if the kernels are the interpreter, bitwise
    for level in (0, 2):
        reference = results[("interpreter", level)]
        for backend in BACKENDS[1:]:
            got = results[(backend, level)]
            assert np.array_equal(reference.t, got.t), (backend, level)
            assert np.array_equal(
                reference.series["plant.out"], got.series["plant.out"],
            ), (backend, level)
            assert np.array_equal(
                reference.final_state, got.final_state,
            ), (backend, level)

    py_ratio_o0 = rates[("compiled-python", 0)] / rates[("interpreter", 0)]
    py_ratio_o2 = rates[("compiled-python", 2)] / rates[("interpreter", 2)]

    lines = []
    for level in (0, 2):
        for backend in BACKENDS:
            ratio = rates[(backend, level)] / rates[("interpreter", level)]
            lines.append(
                f"O{level} {backend:<16}: "
                f"{rates[(backend, level)]:10.0f} steps/s ({ratio:.2f}x)"
            )
    if not has_c_compiler():
        lines.append("native-c               : skipped (no C compiler)")
    report(
        f"S9: execution backends on the {PAD + 4}-block loop "
        f"(rk4, h={H}, {T_END} sim-s)",
        lines,
    )

    assert py_ratio_o2 >= 5.0, (
        f"compiled-python only {py_ratio_o2:.2f}x the interpreter "
        "step-rate at O2; acceptance bar is 5x"
    )

    payload = {
        "blocks": PAD + 4,
        "backends": list(BACKENDS),
        "interp_steps_per_s_o0": rates[("interpreter", 0)],
        "interp_steps_per_s_o2": rates[("interpreter", 2)],
        "pykernel_steps_per_s_o0": rates[("compiled-python", 0)],
        "pykernel_steps_per_s_o2": rates[("compiled-python", 2)],
        "pykernel_speedup_o0": py_ratio_o0,
        "pykernel_speedup_o2": py_ratio_o2,
        "bitwise_identical": True,
        "native_available": has_c_compiler(),
    }
    if has_c_compiler():
        payload["native_steps_per_s_o0"] = rates[("native-c", 0)]
        payload["native_steps_per_s_o2"] = rates[("native-c", 2)]
        payload["native_speedup_o2"] = (
            rates[("native-c", 2)] / rates[("interpreter", 2)]
        )
    bench_json("s9", payload)


@pytest.mark.skipif(not has_c_compiler(), reason="no C compiler on this host")
def test_s9_native_o0_keeps_pace_with_o2(report, bench_json, native_cache):
    programs = {
        level: build_program("native-c", level, native_cache)
        for level in (0, 2)
    }
    best = {level: 0.0 for level in programs}
    for __ in range(PACE_REPEATS):
        for level, program in programs.items():
            program.reset()
            start = time.perf_counter()
            program.run(PACE_T_END)
            wall = time.perf_counter() - start
            best[level] = max(best[level], (PACE_T_END / H) / wall)
    pace = best[0] / best[2]
    report(
        f"S9: native-c O0 vs O2 on the {PAD + 4}-block loop "
        f"(best of {PACE_REPEATS}, {PACE_T_END / H:.0f} steps)",
        [
            f"O0 native-c: {best[0]:10.0f} steps/s",
            f"O2 native-c: {best[2]:10.0f} steps/s",
            f"O0 / O2    : {pace:.2f} (bar {PACE_BAR})",
        ],
    )
    bench_json("s9", {
        "native_pace_steps_per_s_o0": best[0],
        "native_pace_steps_per_s_o2": best[2],
        "native_o0_over_o2": pace,
    })
    assert pace >= PACE_BAR, (
        f"native-c at O0 runs {pace:.2f}x its O2 rate; the bar is "
        f"{PACE_BAR}x (are gcc-foldable literals reaching the kernel?)"
    )
