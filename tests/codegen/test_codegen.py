"""Code generation: lowering, Python round trips, C structure."""

import math

import pytest

from repro.codegen import (
    UnsupportedBlockError,
    generate_c,
    generate_python,
    lower,
)
from repro.codegen.common import CLang, PyLang
from repro.core.model import HybridModel
from repro.core.streamer import Streamer
from repro.dataflow import (
    Constant,
    DeadZone,
    Diagram,
    FirstOrderLag,
    Gain,
    Integrator,
    PID,
    Pulse,
    Ramp,
    Saturation,
    Scope,
    SecondOrderSystem,
    Sine,
    StateSpace,
    Step,
    Sum,
    Terminator,
    TransferFunction,
    ZeroOrderHold,
)


def execute(source):
    namespace = {}
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace


def feedback_diagram():
    d = Diagram("fb")
    d.add(Step("ref", amplitude=1.0))
    d.add(Sum("err", signs="+-"))
    d.add(PID("pid", kp=4.0, ki=2.0, tf=0.5, u_min=-10.0, u_max=10.0))
    d.add(FirstOrderLag("plant", tau=0.5))
    d.connect("ref.out", "err.in1")
    d.connect("plant.out", "err.in2")
    d.connect("err.out", "pid.in")
    d.connect("pid.out", "plant.in")
    return d


def everything_diagram():
    """One diagram touching most supported block types."""
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


class TestLowering:
    def test_evaluation_order_matches_network(self):
        model = lower(feedback_diagram(), PyLang())
        names = [leaf.name for leaf in model.order]
        assert names.index("ref") < names.index("err")
        assert names.index("err") < names.index("pid")

    def test_state_names(self):
        model = lower(feedback_diagram(), PyLang())
        assert len(model.state_names) == 3  # lag(1) + pid(2)

    def test_scope_inputs_recorded_by_default(self):
        model = lower(everything_diagram(), PyLang())
        assert any("scope" in label for label, __ in model.records)

    def test_unsupported_block_raises(self):
        class Custom(Streamer):
            pass

        d = Diagram("d")
        d.add(Constant("c", 1.0))
        d.add_sub(Custom("custom"))
        with pytest.raises(UnsupportedBlockError, match="Custom"):
            lower(d, PyLang())


class TestPythonRoundTrip:
    def test_open_loop_analytic(self):
        d = Diagram("d")
        d.add(Step("s", amplitude=1.0))
        d.add(FirstOrderLag("lag", tau=0.5))
        d.connect("s.out", "lag.in")
        namespace = execute(generate_python(d, records=["lag.out"]))
        result = namespace["simulate"](2.0, h=0.001)
        assert result["lag.out"][-1] == pytest.approx(
            1.0 - math.exp(-4.0), rel=1e-5
        )

    def test_feedback_matches_library(self):
        source = generate_python(feedback_diagram(), records=["plant.out"])
        namespace = execute(source)
        generated = namespace["simulate"](5.0, h=0.002)

        reference = feedback_diagram()
        reference.finalise()
        model = HybridModel("ref")
        model.default_thread.h = 0.002
        model.add_streamer(reference)
        model.add_probe("y", reference.port_at("plant.out"))
        model.run(until=5.0, sync_interval=0.05)

        assert generated["plant.out"][-1] == pytest.approx(
            model.probe("y").y_final[0], abs=1e-6
        )

    def test_everything_diagram_runs(self):
        source = generate_python(everything_diagram(), default_h=0.005)
        namespace = execute(source)
        result = namespace["simulate"](3.0)
        assert len(result["t"]) > 100
        assert all(math.isfinite(v) for v in result["scope.in1"])

    def test_record_every(self):
        d = Diagram("d")
        d.add(Constant("c", 1.0))
        d.add(Integrator("i"))
        d.connect("c.out", "i.in")
        namespace = execute(generate_python(d, records=["i.out"]))
        dense = namespace["simulate"](1.0, h=0.01, record_every=1)
        sparse = namespace["simulate"](1.0, h=0.01, record_every=10)
        assert len(dense["t"]) > len(sparse["t"])

    def test_standalone_no_repro_import(self):
        source = generate_python(feedback_diagram())
        assert "import repro" not in source
        assert "import math" in source


class TestCGeneration:
    def test_structure(self):
        source = generate_c(feedback_diagram(), records=["plant.out"])
        assert source.count("{") == source.count("}")
        assert "#include <math.h>" in source
        assert "static void model_deriv(" in source
        assert "int main(void)" in source
        assert "#define NX 3" in source

    def test_sampled_blocks_emit_held_registers(self):
        source = generate_c(everything_diagram())
        assert "const double h_zoh_held = 0.0;" in source
        # the statement replica of on_sync, in the kernel's sync
        assert "static void model_sync(" in source
        assert "h_zoh_held = v_integ_out;" in source

    def test_csv_header_contains_records(self):
        source = generate_c(feedback_diagram(), records=["plant.out"])
        assert "t,plant.out" in source

    def test_c_expressions_use_c_operators(self):
        lang = CLang()
        assert lang.if_expr("a > b", "1.0", "0.0") == \
            "((a > b) ? (1.0) : (0.0))"
        assert lang.min("a", "b") == "fmin(a, b)"
        assert lang.abs("x") == "fabs(x)"


class TestSignalSubstitution:
    """Signal and held-register identifiers side by side.

    A held register whose identifier *embeds* a signal name (block
    ``xv_g_out`` owns ``h_xv_g_out_held``, which contains the Gain
    ``g``'s signal ``v_g_out``) must stay its own variable.  The
    generated programs declare signals as kernel locals by their own
    names, so no text is rewritten and no identifier can be corrupted.
    """

    def overlapping_diagram(self):
        d = Diagram("overlap")
        d.add(Step("src", amplitude=1.0))
        d.add(Gain("g", k=2.0))
        d.add(ZeroOrderHold("xv_g_out", ts=0.1))
        d.add(Scope("scope"))
        d.connect("src.out", "g.in")
        d.connect("g.out", "xv_g_out.in")
        d.connect("xv_g_out.out", "scope.in1")
        return d

    def test_embedding_held_identifier_survives(self):
        source = generate_c(self.overlapping_diagram())
        assert "const double h_xv_g_out_held = 0.0;" in source
        assert "h_xv_g_out_held = v_g_out;" in source  # the sync sample

    def test_generated_overlap_program_compiles_in_python(self):
        """The Python backend of the same diagram still round-trips."""
        source = generate_python(self.overlapping_diagram())
        namespace = execute(source)
        result = namespace["simulate"](0.5, h=1e-2)
        assert len(result["t"]) > 10
        assert all(math.isfinite(v) for v in result["scope.in1"])
