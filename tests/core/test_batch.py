"""Batch backend: N instances in one state matrix, bit-identical to N
sequential interpreter runs for fixed-step solvers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.models import servo_farm
from repro.core.backend import CompileRequest, compile_program
from repro.core.backend.native import has_c_compiler
from repro.core.batch import (
    BatchError, BatchSimulator, simulate_sequential,
)
from repro.dataflow.diagram import Diagram
from repro.dataflow.discrete import ZeroOrderHold
from repro.dataflow.dynamics import PID, FirstOrderLag
from repro.dataflow.math_blocks import Sum
from repro.dataflow.sinks import Scope
from repro.dataflow.sources import Sine, Step

needs_cc = pytest.mark.skipif(
    not has_c_compiler(), reason="no C compiler on this host"
)

RECORDS = ["plant.out", "pid.out"]


def pid_loop_diagram(kp: float = 3.0) -> Diagram:
    """Step -> Sum(+-) -> PID -> FirstOrderLag with unity feedback."""
    d = Diagram("loop")
    d.add(Step("ref", amplitude=1.0))
    d.add(Sum("err", "+-"))
    d.add(PID("pid", kp=kp, ki=1.5, tf=0.5))
    d.add(FirstOrderLag("plant", tau=0.4))
    d.connect("ref.out", "err.in1")
    d.connect("plant.out", "err.in2")
    d.connect("err.out", "pid.in")
    d.connect("pid.out", "plant.in")
    return d


class TestBitwiseIdentity:
    N = 100

    def test_batch_equals_n_sequential_runs(self):
        sweeps = {"pid.kp": np.linspace(0.5, 5.0, self.N)}
        batch = BatchSimulator(
            pid_loop_diagram(), self.N, solver="rk4", h=2e-3,
            records=RECORDS, sweeps=sweeps,
        ).run(0.2)
        reference = simulate_sequential(
            pid_loop_diagram, self.N, 0.2, solver="rk4", h=2e-3,
            records=RECORDS, sweeps=sweeps,
        )
        assert np.array_equal(batch.t, reference.t)
        for label in RECORDS:
            assert batch.series[label].shape == (len(batch.t), self.N)
            assert np.array_equal(
                batch.series[label], reference.series[label]
            ), f"series {label} diverged from the sequential reference"
        assert np.array_equal(batch.final_states, reference.final_states)

    def test_bitwise_for_every_fixed_step_solver(self):
        sweeps = {"plant.tau": np.linspace(0.2, 1.0, 5)}
        for solver in ("euler", "heun", "rk4"):
            batch = BatchSimulator(
                pid_loop_diagram(), 5, solver=solver, h=5e-3,
                records=RECORDS, sweeps=sweeps,
            ).run(0.1)
            reference = simulate_sequential(
                pid_loop_diagram, 5, 0.1, solver=solver, h=5e-3,
                records=RECORDS, sweeps=sweeps,
            )
            for label in RECORDS:
                assert np.array_equal(
                    batch.series[label], reference.series[label]
                ), f"{solver}: series {label} diverged"

    def test_unswept_batch_rows_are_identical(self):
        batch = BatchSimulator(
            pid_loop_diagram(), 4, solver="rk4", h=1e-2, records=RECORDS,
        ).run(0.1)
        plant = batch.series["plant.out"]
        for i in range(1, 4):
            assert np.array_equal(plant[:, 0], plant[:, i])


class TestBatchResult:
    def test_instance_view(self):
        sweeps = {"pid.kp": np.array([1.0, 2.0, 4.0])}
        batch = BatchSimulator(
            pid_loop_diagram(), 3, solver="rk4", h=1e-2,
            records=RECORDS, sweeps=sweeps,
        ).run(0.1)
        one = batch.instance(2)
        assert np.array_equal(one["t"], batch.t)
        assert np.array_equal(
            one["plant.out"], batch.series["plant.out"][:, 2]
        )
        # higher kp drives the plant harder
        assert (
            batch.series["plant.out"][-1, 2]
            > batch.series["plant.out"][-1, 0]
        )

    def test_record_every_thins_rows(self):
        full = BatchSimulator(
            pid_loop_diagram(), 2, solver="euler", h=1e-2, records=RECORDS,
        ).run(0.1, record_every=1)
        thin = BatchSimulator(
            pid_loop_diagram(), 2, solver="euler", h=1e-2, records=RECORDS,
        ).run(0.1, record_every=5)
        assert len(thin.t) < len(full.t)
        # the final instant is always recorded
        assert thin.t[-1] == full.t[-1]

    def test_stats(self):
        batch = BatchSimulator(
            pid_loop_diagram(), 2, solver="rk4", h=1e-2, records=RECORDS,
            sweeps={"pid.kp": [1.0, 2.0]},
        ).run(0.05)
        assert batch.stats["instances"] == 2
        assert batch.stats["minor_steps"] == 5
        assert batch.stats["sweeps"] == ["pid.kp"]


class TestRejections:
    def test_adaptive_solver_rejected(self):
        with pytest.raises(BatchError, match="fixed-step"):
            BatchSimulator(pid_loop_diagram(), 3, solver="rk45")

    def test_wrong_sweep_length(self):
        with pytest.raises(BatchError, match="expected 3"):
            BatchSimulator(
                pid_loop_diagram(), 3,
                sweeps={"pid.kp": [1.0, 2.0]},
            )

    def test_unknown_sweep_block(self):
        with pytest.raises(BatchError, match="nosuch"):
            BatchSimulator(
                pid_loop_diagram(), 2,
                sweeps={"nosuch.kp": [1.0, 2.0]},
            )

    def test_unknown_sweep_param(self):
        with pytest.raises(BatchError, match="quux"):
            BatchSimulator(
                pid_loop_diagram(), 2,
                sweeps={"pid.quux": [1.0, 2.0]},
            )

    def test_folded_parameter_rejected(self):
        """Sine folds ``2*pi*freq`` into a literal at lowering time, so
        sweeping ``freq`` silently could not work — it must raise."""
        d = Diagram("s")
        d.add(Sine("src", freq=2.0))
        d.add(FirstOrderLag("lag", tau=0.3))
        d.connect("src.out", "lag.in")
        with pytest.raises(BatchError, match="freq"):
            BatchSimulator(
                d, 3, records=["lag.out"],
                sweeps={"src.freq": [1.0, 2.0, 3.0]},
            )

    def test_bad_x0_shape(self):
        with pytest.raises(BatchError, match="x0"):
            BatchSimulator(
                pid_loop_diagram(), 3, records=RECORDS,
                x0=np.zeros((3, 99)),
            )

    def test_n_must_be_positive(self):
        with pytest.raises(BatchError, match="instance"):
            BatchSimulator(pid_loop_diagram(), 0)


class TestX0Override:
    def test_initial_condition_sweep(self):
        d = Diagram("decay")
        d.add(Step("ref", amplitude=0.0))
        d.add(FirstOrderLag("lag", tau=0.5))
        d.connect("ref.out", "lag.in")
        x0 = np.array([[0.0], [1.0], [2.0]])
        batch = BatchSimulator(
            d, 3, solver="rk4", h=1e-2, records=["lag.out"], x0=x0,
        ).run(0.1)
        lag = batch.series["lag.out"]
        assert lag[0, 0] == 0.0
        assert lag[0, 1] == pytest.approx(1.0)
        # free decay from different starts stays ordered
        assert lag[-1, 0] < lag[-1, 1] < lag[-1, 2]


class TestSampledBlocks:
    def test_zero_order_hold_runs_batched(self):
        """Sampled blocks execute in the batch program bitwise against
        N sequential interpreter runs: each instance walks the sample
        clock as ``SampledBlock.on_sync`` does."""
        def diagram():
            d = Diagram("zoh")
            d.add(Sine("src", freq=1.0))
            d.add(ZeroOrderHold("hold", ts=0.05))
            d.add(FirstOrderLag("lag", tau=0.2))
            d.connect("src.out", "hold.in")
            d.connect("hold.out", "lag.in")
            return d

        records = ["hold.out", "lag.out"]
        sweeps = {"lag.tau": [0.1, 0.2, 0.3, 0.4]}
        batch = BatchSimulator(
            diagram(), 4, solver="rk4", h=1e-2, records=records,
            sweeps=sweeps,
        ).run(0.3)
        assert batch.series["hold.out"].shape == (len(batch.t), 4)
        # the hold output is piecewise constant: few distinct values
        distinct = len(np.unique(batch.series["hold.out"][:, 0]))
        assert distinct <= 8
        reference = simulate_sequential(
            diagram, 4, 0.3, solver="rk4", h=1e-2, records=records,
            sweeps=sweeps,
        )
        assert np.array_equal(batch.t, reference.t)
        for label in records:
            assert np.array_equal(
                batch.series[label], reference.series[label],
            ), label
        assert np.array_equal(batch.final_states, reference.final_states)


class TestSampledInterpreterParity:
    """A sampled loop (``servo_farm``: a PID behind a zero-order hold)
    gives the interpreter's records bitwise on the sequential reference
    and on both batch backends: each sync evaluates its pads first."""

    KPS = [7.0, 9.0]
    RECORDS = ["adc.out", "servo.out"]
    T_END = 1.0

    @pytest.fixture(scope="class")
    def interpreter(self):
        runs = [
            compile_program(CompileRequest(
                diagram=servo_farm(kp=kp), records=self.RECORDS,
                solver="rk4", h=1e-3,
            ), "interpreter").run(self.T_END)
            for kp in self.KPS
        ]
        return runs[0].t, {
            label: np.stack([run.series[label] for run in runs], axis=1)
            for label in self.RECORDS
        }

    @pytest.mark.parametrize("executor", [
        "sequential", "batch", pytest.param("native-batch", marks=needs_cc),
    ])
    def test_bitwise_with_the_interpreter(
        self, interpreter, executor, tmp_path,
    ):
        sweeps = {"pid.kp": self.KPS}
        if executor == "sequential":
            result = simulate_sequential(
                servo_farm, 2, self.T_END, solver="rk4", h=1e-3,
                records=self.RECORDS, sweeps=sweeps,
            )
        else:
            sim = BatchSimulator(
                servo_farm(), 2, solver="rk4", h=1e-3,
                records=self.RECORDS, sweeps=sweeps, backend=executor,
                native_cache_dir=tmp_path,
            )
            assert sim.backend_name == executor
            result = sim.run(self.T_END)
        times, series = interpreter
        assert np.array_equal(result.t, times)
        for label in self.RECORDS:
            assert np.array_equal(result.series[label], series[label]), label


def nested_scope_diagram() -> Diagram:
    """A Scope inside a sub-diagram: ``top/ref -> inner/plant -> scope``."""
    inner = Diagram("inner")
    inner.add(FirstOrderLag("plant", tau=0.4))
    inner.add(Scope("scope"))
    inner.connect("plant.out", "scope.in1")
    inner.expose("in", "plant.in")
    top = Diagram("top")
    top.add(Step("ref", amplitude=1.0))
    top.add(inner)
    top.connect("ref.out", "inner.in")
    return top


class TestDefaultRecords:
    def test_nested_scope_sequential_equals_batch(self):
        """The default record set (every Scope input) comes from the
        leaves themselves, so a Scope under a sub-diagram records on
        the sequential reference as on the batch program."""
        sweeps = {"inner.plant.tau": [0.2, 0.4, 0.8]}
        batch = BatchSimulator(
            nested_scope_diagram(), 3, solver="rk4", h=0.01,
            sweeps=sweeps,
        ).run(0.2)
        reference = simulate_sequential(
            nested_scope_diagram, 3, 0.2, solver="rk4", h=0.01,
            sweeps=sweeps,
        )
        assert list(batch.series) == list(reference.series) == ["scope.in1"]
        assert np.array_equal(batch.t, reference.t)
        assert np.array_equal(
            batch.series["scope.in1"], reference.series["scope.in1"],
        )
