"""What a batch program builds, and where a batch run writes its records.

* A native-batch program is the diagram lowered once, with
  ``CBatchLang``: a cold compile renders and compiles no NumPy program.
  The NumPy program is built only when the simulator runs it (a
  demotion) or on the first ``rhs()`` of a native adapter, and is
  fetched through the program cache under the NumPy key.
* One run writes its records once: every chunk is a view of the run's
  one buffer, and merging an uninterrupted run's chunks copies nothing.
* A diverging plant fails the same way on all five executors: a
  :class:`~repro.solvers.base.SolverError`, never ``inf`` records.
"""

from __future__ import annotations

import builtins

import numpy as np
import pytest

import repro.codegen.common as codegen_common
import repro.core.batch as batch_module
from repro.core.backend import CompileRequest, compile_program
from repro.core.batch import (
    BatchSimulator, merge_chunks, reset_shared_program_cache,
)
from repro.dataflow import Integrator, Product
from repro.dataflow.diagram import Diagram
from repro.service.cache import PlanCache
from repro.solvers.base import SolverError
from tests.backends.test_native_batch import (
    H,
    T_END,
    assert_batch_bitwise,
    kp_sweep,
    needs_cc,
    pid_loop_diagram,
    sampled_diagram,
)
from tests.backends.test_native_torn import JUNK_CC

N = 5
RECORDS = ["plant.out", "pid.out", "err.out"]

BACKENDS = [
    "batch", pytest.param("native-batch", marks=needs_cc),
]


@pytest.fixture
def builds(monkeypatch):
    """Counts lowerings (by ``Lang``), NumPy renders and NumPy program
    compiles from here on."""
    counts = {"lower": [], "render": 0, "compile": 0}
    lower = codegen_common.lower
    render = batch_module._render_program

    def counting_lower(diagram, lang, *args, **kwargs):
        counts["lower"].append(type(lang).__name__)
        return lower(diagram, lang, *args, **kwargs)

    def counting_render(model):
        counts["render"] += 1
        return render(model)

    def counting_compile(source, filename, *args, **kwargs):
        if filename == "<batch-program>":
            counts["compile"] += 1
        return builtins.compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(codegen_common, "lower", counting_lower)
    monkeypatch.setattr(batch_module, "_render_program", counting_render)
    monkeypatch.setattr(
        batch_module, "compile", counting_compile, raising=False,
    )
    return counts


def simulator(backend, cache=False, **overrides):
    kwargs = dict(
        n=N, solver="rk4", h=H, records=RECORDS, sweeps=kp_sweep(N),
        backend=backend, cache=cache,
    )
    kwargs.update(overrides)
    return BatchSimulator(pid_loop_diagram(), **kwargs)


# ----------------------------------------------------------------------
# one lowering per program
# ----------------------------------------------------------------------
class TestOneLowering:
    @needs_cc
    def test_cold_native_compile_lowers_once_for_c(self, builds, tmp_path):
        sim = simulator("native-batch", native_cache_dir=tmp_path)
        assert sim.backend_name == "native-batch"
        assert sim.program.native and sim.program.source is None
        assert builds == {"lower": ["CBatchLang"], "render": 0, "compile": 0}

    def test_numpy_compile_lowers_once_for_numpy(self, builds):
        sim = simulator("batch")
        assert not sim.program.native
        assert builds == {"lower": ["NumpyLang"], "render": 1, "compile": 1}

    @pytest.mark.parametrize("cause", ["disabled", "junk-cc"])
    def test_demotion_builds_the_numpy_program_once(
        self, builds, monkeypatch, tmp_path, cause,
    ):
        if cause == "disabled":
            monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        else:
            cc = tmp_path / "junk-cc"
            cc.write_text(JUNK_CC)
            cc.chmod(0o755)
            monkeypatch.setenv("CC", str(cc))
            monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        cache = PlanCache()
        sim = simulator(
            "native-batch", cache=cache, native_cache_dir=tmp_path / "so",
        )
        assert sim.backend_name == "batch", sim.backend_fallback_reason
        assert builds == {
            "lower": ["CBatchLang", "NumpyLang"], "render": 1, "compile": 1,
        }
        demoted = sim.run(T_END)
        # the NumPy program sits in the cache under the NumPy key: a
        # plain batch simulator reuses it
        assert len(cache) == 2
        plain = simulator("batch", cache=cache).run(T_END)
        assert builds["render"] == 1
        assert_batch_bitwise(plain, demoted)

    def test_c_lowering_error_compiles_the_numpy_program(
        self, builds, monkeypatch,
    ):
        lower = codegen_common.lower

        def no_c(diagram, lang, *args, **kwargs):
            if isinstance(lang, codegen_common.CBatchLang):
                raise codegen_common.CodegenError("no C emitter")
            return lower(diagram, lang, *args, **kwargs)

        monkeypatch.setattr(codegen_common, "lower", no_c)
        sim = simulator("native-batch")
        assert not sim.program.native
        assert sim.backend_name == "batch"
        assert builds == {"lower": ["NumpyLang"], "render": 1, "compile": 1}
        assert_batch_bitwise(simulator("batch").run(T_END), sim.run(T_END))

    @needs_cc
    def test_native_rhs_builds_the_numpy_program_on_first_use(
        self, builds, tmp_path,
    ):
        # the registry compiles through the shared cache: start it empty
        reset_shared_program_cache()
        request = CompileRequest(
            diagram=pid_loop_diagram(), solver="rk4", h=H, n=N,
            records=RECORDS, sweeps=kp_sweep(N), cache_dir=tmp_path,
        )
        program = compile_program(request, "native-batch")
        assert program.backend == "native-batch"
        program.run(T_END / 2)
        assert builds["render"] == 0
        program.rhs(program.t, program.x)
        program.rhs(program.t, program.x)
        assert builds["render"] == 1 and builds["compile"] == 1


@needs_cc
@pytest.mark.parametrize(
    "factory", [pid_loop_diagram, sampled_diagram],
    ids=["pid_loop", "sampled_zoh"],
)
def test_native_rhs_equals_the_numpy_programs(factory, tmp_path):
    """Also mid-run, where the kernel's held registers have moved on."""
    def request():
        return CompileRequest(
            diagram=factory(), solver="rk4", h=H, n=N, cache_dir=tmp_path,
        )

    native = compile_program(request(), "native-batch")
    numpy = compile_program(request(), "batch")
    assert (native.backend, numpy.backend) == ("native-batch", "batch")
    for t_end in (0.0, T_END / 2):
        if t_end:
            native.run(t_end)
            numpy.run(t_end)
        assert np.array_equal(native.x, numpy.x)
        assert np.array_equal(
            native.rhs(native.t, native.x), numpy.rhs(numpy.t, numpy.x),
        )


# ----------------------------------------------------------------------
# records written once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestRecordsWrittenOnce:
    @pytest.mark.parametrize("chunk_steps", [None, 1, 7])
    def test_merged_series_are_the_chunks_buffer(
        self, backend, chunk_steps, tmp_path,
    ):
        sim = simulator(backend, native_cache_dir=tmp_path)
        assert sim.backend_name == backend
        chunks = list(sim.run_chunked(
            T_END, record_every=3, chunk_steps=chunk_steps,
        ))
        merged = merge_chunks(chunks, N)
        assert merged.t.flags.c_contiguous
        assert all(
            np.shares_memory(merged.t, chunk.t)
            for chunk in chunks if len(chunk.t)
        )
        assert list(merged.series) == RECORDS
        for label, series in merged.series.items():
            assert series.shape == (len(merged.t), N)
            assert series.flags.c_contiguous, label
            assert all(
                np.shares_memory(series, chunk.series[label])
                for chunk in chunks if len(chunk.t)
            ), label

    def test_several_labels_match_the_numpy_program(self, backend, tmp_path):
        result = simulator(backend, native_cache_dir=tmp_path).run(T_END)
        for series in result.series.values():
            assert series.flags.c_contiguous
        reference = simulator("batch").run(T_END)
        assert_batch_bitwise(reference, result)

    def test_resumed_chunks_are_concatenated(self, backend, tmp_path):
        it = simulator(backend, native_cache_dir=tmp_path).run_chunked(
            T_END, chunk_steps=23,
        )
        first = next(it)
        it.close()
        rest = list(simulator(backend, native_cache_dir=tmp_path).run_chunked(
            T_END, chunk_steps=23, resume=first.resume,
        ))
        merged = merge_chunks([first, *rest], N)
        for label, series in merged.series.items():
            assert series.flags.c_contiguous
            assert not np.shares_memory(series, first.series[label])
        reference = simulator("batch").run(T_END)
        assert_batch_bitwise(reference, merged)


# ----------------------------------------------------------------------
# divergence
# ----------------------------------------------------------------------
def square_diagram() -> Diagram:
    """x' = x**2: from x(0) = x0 > 0, x = x0 / (1 - x0 t) blows up at
    t = 1 / x0."""
    d = Diagram("square")
    d.add(Integrator("x", y0=1.0))
    d.add(Product("sq"))
    d.connect("x.out", "sq.in1")
    d.connect("x.out", "sq.in2")
    d.connect("sq.out", "x.in")
    return d


def blowup(backend, tmp_path, **kwargs):
    sim = BatchSimulator(
        square_diagram(), n=4, solver="rk4", h=0.01, records=["x.out"],
        backend=backend, cache=False, native_cache_dir=tmp_path, **kwargs,
    )
    assert sim.backend_name == backend
    return sim


def blowup_program(backend, tmp_path):
    program = compile_program(
        CompileRequest(
            diagram=square_diagram(), records=["x.out"], solver="rk4",
            h=0.01, cache_dir=tmp_path,
        ),
        backend,
    )
    assert program.backend == backend
    return program


SCALAR_BACKENDS = [
    "interpreter", "compiled-python",
    pytest.param("native-c", marks=needs_cc),
]

DIVERGED = (
    r"^rk4: non-finite state at t=[0-9.]+ \(diverged or step too large\)"
)


class TestDivergence:
    @pytest.fixture(autouse=True)
    def _quiet_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"):
            yield

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raises_the_solver_error(self, backend, tmp_path):
        with pytest.raises(SolverError, match=DIVERGED):
            blowup(backend, tmp_path).run(1.5)

    @pytest.mark.parametrize("backend", SCALAR_BACKENDS)
    def test_scalar_run_raises_the_solver_error(self, backend, tmp_path):
        with pytest.raises(SolverError, match=DIVERGED):
            blowup_program(backend, tmp_path).run(1.5)

    @pytest.mark.parametrize("backend", SCALAR_BACKENDS)
    def test_scalar_step_raises_where_the_state_diverges(
        self, backend, tmp_path,
    ):
        program = blowup_program(backend, tmp_path)
        with pytest.raises(SolverError) as info:
            for __ in range(150):
                program.step()
        assert str(info.value) == (
            "rk4: non-finite state at t=1.03 (diverged or step too large)"
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_yields_no_records_of_the_failed_segment(
        self, backend, tmp_path,
    ):
        chunks = []
        with pytest.raises(SolverError):
            for chunk in blowup(backend, tmp_path).run_chunked(
                1.5, chunk_steps=50,
            ):
                chunks.append(chunk)
        # the state goes non-finite at t = 1.03, in the third segment
        assert [chunk.steps for chunk in chunks] == [50, 100]
        for chunk in chunks:
            assert np.isfinite(chunk.series["x.out"]).all()


@needs_cc
def test_native_divergence_names_the_instances(tmp_path):
    # x0 = 0.5 would blow up at t = 2, x0 = -1 never does
    x0 = np.array([[1.0], [0.5], [1.0], [-1.0]])
    with pytest.raises(SolverError) as info:
        blowup("native-batch", tmp_path, x0=x0).run(1.5)
    assert str(info.value) == (
        "rk4: non-finite state at t=1.5 (diverged or step too large) "
        "in instances [0, 2]"
    )
