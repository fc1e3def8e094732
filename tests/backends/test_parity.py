"""Differential parity: every backend bitwise against the interpreter.

All runs use a binary-exact step (``H = 1/512``) so every grid point —
including the end time — is an exact double and split/clamped final
steps cannot introduce last-ulp drift.  The reference is the
``interpreter`` backend compiled from the *same* request (same opt
level), which is itself bitwise identical to the O0 plan at O1 (the
optimizer's exact-replay guarantee, asserted separately below).
"""

import math
import subprocess

import numpy as np
import pytest

from repro.codegen import generate_c, generate_python
from repro.codegen.common import CLang, NumpyLang, PyLang
from repro.core.backend import (
    FALLBACKS,
    BackendError,
    CompileRequest,
    available_backends,
    compile_program,
    fallback_chain,
    get_backend,
    has_c_compiler,
)
from repro.core.backend.native import find_c_compiler
from repro.core.batch import BatchSimulator, simulate_sequential
from repro.scenarios.synth import synth_dag
from repro.dataflow import (
    PID,
    DeadZone,
    FirstOrderLag,
    Gain,
    Integrator,
    Pulse,
    Ramp,
    Saturation,
    Scope,
    SecondOrderSystem,
    Sine,
    StateSpace,
    Step,
    Sum,
    TransferFunction,
    UnitDelay,
    ZeroOrderHold,
)
from repro.dataflow.diagram import Diagram
from repro.service import MetricsRegistry
from tests.backends.test_native_torn import JUNK_CC

H = 1.0 / 512.0  # binary-exact: every multiple is an exact double
T_END = 0.5      # 256 whole steps; the final step is never clamped

needs_cc = pytest.mark.skipif(
    not has_c_compiler(), reason="no C compiler on this host"
)


def feedback_diagram():
    d = Diagram("fb")
    d.add(Step("ref", amplitude=1.0))
    d.add(Sum("err", signs="+-"))
    d.add(PID("pid", kp=4.0, ki=2.0, tf=0.5, u_min=-10.0, u_max=10.0))
    d.add(FirstOrderLag("plant", tau=0.5))
    d.add(Scope("scope"))
    d.connect("ref.out", "err.in1")
    d.connect("plant.out", "err.in2")
    d.connect("err.out", "pid.in")
    d.connect("pid.out", "plant.in")
    d.connect("plant.out", "scope.in1")
    return d


def everything_diagram():
    """Most supported block types, including the sampled sync path."""
    d = Diagram("all")
    d.add(Sine("sine", amplitude=1.0, freq=0.5))
    d.add(Ramp("ramp", slope=0.1))
    d.add(Pulse("pulse", period=2.0, duty=0.5))
    d.add(Sum("mix", signs="+++"))
    d.add(Saturation("sat", lower=-1.5, upper=1.5))
    d.add(DeadZone("dz", width=0.1))
    d.add(Gain("g", k=2.0))
    d.add(SecondOrderSystem("pt2", omega=3.0, zeta=0.7))
    d.add(TransferFunction("tf", num=[1.0], den=[0.2, 1.0]))
    d.add(StateSpace("ss", a=[[-2.0]], b=[1.0], c=[1.0]))
    d.add(Integrator("integ"))
    d.add(ZeroOrderHold("zoh", ts=0.1))
    d.add(Scope("scope"))
    d.connect("sine.out", "mix.in1")
    d.connect("ramp.out", "mix.in2")
    d.connect("pulse.out", "mix.in3")
    d.connect("mix.out", "sat.in")
    d.connect("sat.out", "dz.in")
    d.connect("dz.out", "g.in")
    d.connect("g.out", "pt2.in")
    d.connect("pt2.out", "tf.in")
    d.connect("tf.out", "ss.in")
    d.connect("ss.out", "integ.in")
    d.connect("integ.out", "zoh.in")
    d.connect("zoh.out", "scope.in1")
    return d


#: name -> (diagram factory, has sampled blocks)
DIAGRAMS = {
    "feedback": (feedback_diagram, False),
    "everything": (everything_diagram, True),
    "synth0": (lambda: synth_dag(0, blocks=14), False),
    "synth1": (lambda: synth_dag(1, blocks=18, sampled=True), True),
    "synth2": (lambda: synth_dag(2, blocks=10), False),
    "synth3": (lambda: synth_dag(3, blocks=16, sampled=True), True),
}
CONTINUOUS = [name for name, (__, sampled) in DIAGRAMS.items() if not sampled]
OPT_LEVELS = (0, 1, 2)


@pytest.fixture(scope="module")
def native_cache(tmp_path_factory):
    """One artifact cache for the whole module: each (diagram, opt)
    pair compiles its shared object exactly once."""
    return tmp_path_factory.mktemp("native-cache")


def build(name, backend, opt_level, cache_dir=None, **overrides):
    factory, __ = DIAGRAMS[name]
    request = CompileRequest(
        diagram=factory(), h=H, opt_level=opt_level, cache_dir=cache_dir,
        **overrides,
    )
    program = compile_program(request, backend)
    assert program.backend == backend
    return program


def assert_bitwise(ref, got):
    assert np.array_equal(ref.t, got.t)
    assert set(ref.series) == set(got.series)
    for label in ref.series:
        assert np.array_equal(ref.series[label], got.series[label]), label
    assert np.array_equal(ref.final_state, got.final_state)


@pytest.mark.parametrize("opt_level", OPT_LEVELS)
@pytest.mark.parametrize("name", sorted(DIAGRAMS))
class TestCompiledPython:
    def test_bitwise_vs_interpreter(self, name, opt_level):
        ref = build(name, "interpreter", opt_level).run(T_END)
        got = build(name, "compiled-python", opt_level).run(T_END)
        assert_bitwise(ref, got)


@needs_cc
@pytest.mark.parametrize("opt_level", OPT_LEVELS)
@pytest.mark.parametrize("name", sorted(DIAGRAMS))
class TestNativeC:
    def test_bitwise_vs_interpreter(self, name, opt_level, native_cache):
        ref = build(name, "interpreter", opt_level).run(T_END)
        got = build(
            name, "native-c", opt_level, cache_dir=native_cache,
        ).run(T_END)
        assert_bitwise(ref, got)


@pytest.mark.parametrize("opt_level", (0, 2))
@pytest.mark.parametrize("name", sorted(CONTINUOUS))
class TestBatchSingleInstance:
    def test_bitwise_vs_interpreter(self, name, opt_level):
        ref = build(name, "interpreter", opt_level).run(T_END)
        got = build(name, "batch", opt_level, n=1).run(T_END)
        assert np.array_equal(ref.t, got.t)
        assert set(ref.series) == set(got.series)
        for label in ref.series:
            assert np.array_equal(
                ref.series[label], got.series[label][:, 0],
            ), label
        assert np.array_equal(ref.final_state, got.final_state[0])


INF = float("inf")
UNBOUNDED_RECORDS = ["sat.out", "lag.out", "integ.out"]


def unbounded_diagram():
    """Open-ended limits spelled ``±inf``: a saturation with no upper
    bound feeding a lag, and an integrator limited on neither side."""
    d = Diagram("unbounded")
    d.add(Sine("src", amplitude=2.0, freq=1.5))
    d.add(Saturation("sat", lower=-0.5, upper=INF))
    d.add(FirstOrderLag("lag", tau=0.3))
    d.add(Integrator("integ", lower=-INF, upper=INF))
    d.connect("src.out", "sat.in")
    d.connect("sat.out", "lag.in")
    d.connect("lag.out", "integ.in")
    return d


class TestNonFiniteParameters:
    """``repr(inf)`` is no literal in Python or C: every dialect spells
    ±inf and NaN validly, and every backend runs ±inf bounds bitwise
    with the interpreter."""

    @staticmethod
    def run(backend, cache_dir=None):
        program = compile_program(CompileRequest(
            diagram=unbounded_diagram(), records=UNBOUNDED_RECORDS, h=H,
            cache_dir=cache_dir,
        ), backend)
        assert program.backend == backend
        return program.run(T_END)

    @pytest.mark.parametrize("backend", [
        "compiled-python",
        "batch",
        pytest.param("native-c", marks=needs_cc),
        pytest.param("native-batch", marks=needs_cc),
    ])
    def test_bitwise_vs_interpreter(self, backend, native_cache):
        ref = self.run("interpreter")
        assert ref.series["sat.out"].min() == -0.5  # the finite side binds
        got = self.run(backend, native_cache)
        assert np.array_equal(ref.t, got.t)
        for label in UNBOUNDED_RECORDS:
            series = got.series[label]
            if series.ndim == 2:  # a batch backend's single instance
                series = series[:, 0]
            assert np.array_equal(ref.series[label], series), label
        assert np.array_equal(ref.final_state, np.ravel(got.final_state))

    def test_every_dialect_spells_them(self):
        for lang in (PyLang(), NumpyLang()):
            assert eval(lang.num(INF)) == INF
            assert eval(lang.num(-INF)) == -INF
            assert math.isnan(eval(lang.num(math.nan)))
        assert CLang().num(INF) == "(1.0 / 0.0)"
        assert CLang().num(-INF) == "(-1.0 / 0.0)"
        assert CLang().num(math.nan) == "(0.0 / 0.0)"

    def test_generated_python_runs(self):
        source = generate_python(
            unbounded_diagram(), records=UNBOUNDED_RECORDS, default_h=H,
        )
        namespace = {}
        exec(compile(source, "<generated>", "exec"), namespace)
        out = namespace["simulate"](T_END)
        ref = self.run("interpreter")
        for label in UNBOUNDED_RECORDS:
            assert np.allclose(out[label], ref.series[label]), label

    def test_non_finite_initial_values(self):
        """Initial states and held registers are literals of the
        generated programs too."""
        def diagram(with_state):
            d = Diagram("start")
            d.add(Sine("src", amplitude=2.0, freq=1.5))
            d.add(UnitDelay("delay", ts=0.125, y0=INF))
            d.connect("src.out", "delay.in")
            if with_state:  # the solvers refuse a non-finite state
                d.add(Integrator("integ", y0=-INF))
                d.connect("src.out", "integ.in")
            return d

        records = ["delay.out", "integ.out"]
        source = generate_python(diagram(True), records=records)
        namespace = {}
        exec(compile(source, "<generated>", "exec"), namespace)
        out = namespace["simulate"](T_END)
        assert (out["delay.out"][0], out["integ.out"][0]) == (INF, -INF)
        c_source = generate_c(diagram(True), records=records)
        assert "initial_state[] = {(-1.0 / 0.0)};" in c_source
        assert "h_delay_store = (1.0 / 0.0);" in c_source
        batch = compile_program(CompileRequest(
            diagram=diagram(False), records=records[:1], h=H,
        ), "batch").run(T_END)
        assert batch.series["delay.out"][0, 0] == INF

    @needs_cc
    def test_generated_c_runs(self, tmp_path):
        c_file = tmp_path / "unbounded.c"
        c_file.write_text(generate_c(
            unbounded_diagram(), records=UNBOUNDED_RECORDS, default_h=H,
            t_end=T_END,
        ))
        binary = tmp_path / "unbounded"
        subprocess.run(
            [find_c_compiler(), "-O2", "-o", str(binary), str(c_file),
             "-lm"],
            check=True, capture_output=True,
        )
        rows = subprocess.run(
            [str(binary)], check=True, capture_output=True, text=True,
        ).stdout.split()
        last = [float(v) for v in rows[-1].split(",")]
        ref = self.run("interpreter")
        # the program records like every executor, the final row at
        # t_end included: its last row is the interpreter's last
        # record, at 9 digits
        assert last[0] == ref.t[-1]
        for value, label in zip(last[1:], UNBOUNDED_RECORDS):
            assert value == pytest.approx(ref.series[label][-1], rel=1e-8)


PROBE_RECORDS = ["zoh.out", "delay.out", "lag.out"]
PROBE_TS = (0.013, 0.02, 0.025, 0.05, 0.1)
PROBE_H = (1e-3, 5e-3, 1e-2)
PROBE_T_END = 2.0


def probe_diagram(ts):
    """Sine -> ZeroOrderHold(ts) -> UnitDelay(ts) -> FirstOrderLag: a
    sample grid that is not a multiple of the step, so the sample clock
    falls between steps and walks past some of them."""
    d = Diagram("probe")
    d.add(Sine("src", amplitude=1.0))
    d.add(ZeroOrderHold("zoh", ts=ts))
    d.add(UnitDelay("delay", ts=ts))
    d.add(FirstOrderLag("lag", tau=0.2))
    d.connect("src.out", "zoh.in")
    d.connect("zoh.out", "delay.in")
    d.connect("delay.out", "lag.in")
    return d


def probe_request(ts, h, cache_dir=None, **overrides):
    return CompileRequest(
        diagram=probe_diagram(ts), records=PROBE_RECORDS, solver="rk4",
        h=h, cache_dir=cache_dir, **overrides,
    )


def probe_records(executor, ts, h, cache_dir, tmp_path):
    """``(t, {label: series})`` of one executor's run of the probe."""
    if executor in ("interpreter", "compiled-python", "native-c"):
        program = compile_program(probe_request(ts, h, cache_dir), executor)
        assert program.backend == executor
        result = program.run(PROBE_T_END)
        return result.t, result.series
    if executor in ("batch", "native-batch"):
        program = compile_program(
            probe_request(ts, h, cache_dir, n=1), executor,
        )
        assert program.backend == executor
        result = program.run(PROBE_T_END)
        return result.t, {
            label: series[:, 0] for label, series in result.series.items()
        }
    if executor == "sequential":
        result = simulate_sequential(
            lambda: probe_diagram(ts), 1, PROBE_T_END, solver="rk4", h=h,
            records=PROBE_RECORDS,
        )
        return result.t, {
            label: series[:, 0] for label, series in result.series.items()
        }
    if executor == "generate_python":
        namespace = {}
        exec(compile(generate_python(
            probe_diagram(ts), records=PROBE_RECORDS, default_h=h,
        ), "<generated>", "exec"), namespace)
        out = namespace["simulate"](PROBE_T_END)
        return np.asarray(out["t"]), {
            label: np.asarray(out[label]) for label in PROBE_RECORDS
        }
    assert executor == "generate_c"
    c_file = tmp_path / "probe.c"
    c_file.write_text(generate_c(
        probe_diagram(ts), records=PROBE_RECORDS, default_h=h,
        t_end=PROBE_T_END,
    ))
    binary = tmp_path / "probe"
    subprocess.run(
        [find_c_compiler(), "-O2", "-ffp-contract=off", "-o", str(binary),
         str(c_file), "-lm"],
        check=True, capture_output=True,
    )
    return subprocess.run(
        [str(binary)], check=True, capture_output=True, text=True,
    ).stdout


@pytest.fixture(scope="module")
def probe_reference():
    """The interpreter's records of the probe, once per ``(ts, h)``."""
    runs = {}

    def reference(ts, h):
        if (ts, h) not in runs:
            runs[ts, h] = probe_records("interpreter", ts, h, None, None)
        return runs[ts, h]

    return reference


def as_csv(t, series):
    """Records as the generated C program prints them (``%.9g``)."""
    columns = [t, *(series[label] for label in PROBE_RECORDS)]
    return "".join(
        ",".join("%.9g" % value for value in row) + "\n"
        for row in zip(*columns)
    )


@pytest.mark.parametrize("executor", [
    "interpreter", "compiled-python", "batch", "sequential",
    "generate_python",
    pytest.param("native-c", marks=needs_cc),
    pytest.param("native-batch", marks=needs_cc),
    pytest.param("generate_c", marks=needs_cc),
])
@pytest.mark.parametrize("h", PROBE_H)
@pytest.mark.parametrize("ts", PROBE_TS)
class TestSampledBlocks:
    """Every executor takes the interpreter's samples: one sync form
    (``BlockCode.sync_stmts``) rendered for every target."""

    def test_bitwise_vs_interpreter(
        self, ts, h, executor, probe_reference, native_cache, tmp_path,
    ):
        t, series = probe_reference(ts, h)
        got = probe_records(executor, ts, h, native_cache, tmp_path)
        if executor == "generate_c":
            header = ",".join(["t", *PROBE_RECORDS]) + "\n"
            assert got == header + as_csv(t, series)
            return
        got_t, got_series = got
        assert np.array_equal(got_t, t)
        for label in PROBE_RECORDS:
            assert np.array_equal(got_series[label], series[label]), label


@needs_cc
@pytest.mark.parametrize("demotion", ["disabled", "junk-cc"])
def test_demoted_native_batch_equals_the_native_run(
    demotion, native_cache, tmp_path, monkeypatch,
):
    """A native-batch run that demotes to the NumPy program gives the
    native run's answer on sampled blocks."""
    def run(cache_dir):
        sim = BatchSimulator(
            probe_diagram(0.013), 2, solver="rk4", h=1e-2,
            records=PROBE_RECORDS, sweeps={"lag.tau": [0.2, 0.3]},
            backend="native-batch", native_cache_dir=cache_dir,
        )
        return sim, sim.run(PROBE_T_END)

    native, want = run(native_cache)
    assert native.backend_name == "native-batch"
    if demotion == "disabled":
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    else:
        cc = tmp_path / "junk-cc"
        cc.write_text(JUNK_CC)
        cc.chmod(0o755)
        monkeypatch.setenv("CC", str(cc))
    demoted, got = run(tmp_path / "cache")
    assert demoted.backend_name == "batch"
    assert demoted.backend_fallback_reason
    assert np.array_equal(got.t, want.t)
    for label in PROBE_RECORDS:
        assert np.array_equal(got.series[label], want.series[label]), label
    assert np.array_equal(got.final_states, want.final_states)


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_o1_replays_o0_bitwise(name):
    """The optimizer's O1 exact-replay guarantee, through the backend
    surface: the fused/folded plan's trace is the unoptimized trace."""
    ref = build(name, "interpreter", 0).run(T_END)
    got = build(name, "interpreter", 1).run(T_END)
    assert_bitwise(ref, got)


def test_split_run_continues_bitwise():
    """Two runs from one cursor equal one uninterrupted run — on every
    scalar backend, given a binary-exact grid."""
    full = build("everything", "interpreter", 0).run(2 * T_END)
    for backend in ("interpreter", "compiled-python"):
        program = build("everything", backend, 0)
        first = program.run(T_END)
        second = program.run(2 * T_END)
        # the second segment re-records its resume point: drop the
        # duplicate row when splicing
        t = np.concatenate([first.t, second.t[1:]])
        assert np.array_equal(full.t, t)
        for label in full.series:
            series = np.concatenate(
                [first.series[label], second.series[label][1:]]
            )
            assert np.array_equal(full.series[label], series), label
        assert np.array_equal(full.final_state, second.final_state)


class TestRegistryAndFallback:
    def test_registry_lists_all_five(self):
        assert available_backends() == [
            "batch", "compiled-python", "interpreter", "native-batch",
            "native-c",
        ]

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown execution backend"):
            get_backend("jit-fortran")

    def test_fallback_chain_shapes(self):
        assert fallback_chain("native-c") == (
            "native-c", "compiled-python", "interpreter",
        )
        assert fallback_chain("compiled-python") == (
            "compiled-python", "interpreter",
        )
        assert fallback_chain("interpreter") == ("interpreter",)
        assert FALLBACKS["native-c"][-1] == "interpreter"

    def test_native_without_compiler_falls_back(self, monkeypatch):
        """No C compiler must never fail the job: the request lands on
        compiled-python with a telemetry event and a fallback metric."""
        import repro.core.backend.native as native

        monkeypatch.setattr(native, "has_c_compiler", lambda: False)
        metrics = MetricsRegistry()
        events = []
        program = compile_program(
            CompileRequest(diagram=feedback_diagram(), h=H),
            "native-c",
            metrics=metrics,
            emit=lambda **payload: events.append(payload),
        )
        assert program.backend == "compiled-python"
        assert events and events[0]["requested"] == "native-c"
        assert events[0]["attempted"] == "native-c"
        assert events[0]["fell_back_to"] == "compiled-python"
        assert "compiler" in events[0]["reason"]
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["backend.fallback"] == 1
        got = program.run(T_END)
        ref = build("feedback", "interpreter", 0).run(T_END)
        assert_bitwise(ref, got)

    def test_adaptive_solver_demotes_kernels(self):
        """rk45 has no fixed-step kernel loop: compiled backends hand
        the request to the interpreter instead of mis-stepping."""
        events = []
        program = compile_program(
            CompileRequest(diagram=feedback_diagram(), solver="rk45", h=H),
            "compiled-python",
            emit=lambda **payload: events.append(payload),
        )
        assert program.backend == "interpreter"
        assert events and "solver" in events[0]["reason"]
