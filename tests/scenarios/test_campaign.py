"""The campaign driver: oracles, steering, self-test, reports."""

import numpy as np
import pytest

import repro.codegen.cgen
import repro.codegen.pygen
from repro.core import loop
from repro.core.backend import has_c_compiler
from repro.core.backend.pykernel import PyKernelProgram
from repro.scenarios.campaign import (
    CampaignConfig,
    CampaignReport,
    CampaignRunner,
    _check_generated,
    _Recorder,
    _run_differential,
    execute_scenario,
    replay,
)
from repro.scenarios.spec import ScenarioSpec
from repro.solvers.base import SolverError
from tests.backends.test_batch_program import square_diagram

# interpreter + compiled-python only: deterministic in CI regardless of
# whether a C toolchain is present
BACKENDS = ["compiled-python"]


def small_config(**overrides):
    base = dict(
        count=8, seed=0, workers=2, round_size=4, t_end=0.1,
        backends=BACKENDS,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestSeedStream:
    def test_stable_arithmetic(self):
        runner = CampaignRunner(small_config())
        assert runner.seed_for(0) == 12345
        assert [runner.seed_for(i) for i in range(4)] == [
            CampaignRunner(small_config()).seed_for(i) for i in range(4)
        ]

    def test_master_seed_shifts_stream(self):
        a = CampaignRunner(small_config(seed=1))
        b = CampaignRunner(small_config(seed=2))
        assert a.seed_for(0) != b.seed_for(0)


class TestExecuteScenario:
    def test_dag_scenario_passes(self):
        spec = ScenarioSpec.from_seed(1013916571)
        assert spec.family == "dag"
        outcome = execute_scenario(spec, small_config())
        assert outcome.ok, outcome.detail
        assert "interpreter" in outcome.coverage["backends"]
        assert outcome.coverage["opcodes"]

    def test_unknown_family_is_a_divergence(self):
        outcome = execute_scenario(
            ScenarioSpec(seed=1, family="bogus"), small_config(),
        )
        assert not outcome.ok
        assert "bogus" in outcome.detail

    def test_executor_crash_is_a_divergence_not_an_exception(self):
        # family dispatch catches oracle crashes and reports them
        spec = ScenarioSpec(seed=1, family="dag", params={})  # no blocks
        outcome = execute_scenario(spec, small_config())
        assert not outcome.ok
        assert "raised" in outcome.detail

    def test_mutated_scenario_is_caught(self):
        spec = ScenarioSpec.from_seed(1013916571)
        config = small_config(mutate_seeds=frozenset([spec.seed]))
        outcome = execute_scenario(spec, config)
        assert not outcome.ok
        assert "diverges" in outcome.detail

    def test_replay_matches_campaign_execution(self):
        seed = 1013916571
        direct = execute_scenario(
            ScenarioSpec.from_seed(seed), small_config(),
        )
        again = replay(seed, small_config())
        assert direct.to_dict() == again.to_dict()


class TestRunner:
    def test_small_campaign_is_clean_and_deterministic(self):
        first = CampaignRunner(small_config()).run()
        second = CampaignRunner(small_config()).run()
        assert first.ok, first.divergences
        assert first.count == 8
        assert first.to_dict() == second.to_dict()

    def test_report_is_independent_of_workers(self):
        serial = CampaignRunner(small_config(workers=1)).run()
        parallel = CampaignRunner(small_config(workers=3)).run()
        assert serial.ok, serial.divergences
        assert serial.to_dict() == parallel.to_dict()

    def test_steering_changes_selection_but_not_meaning(self):
        steered = CampaignRunner(small_config(count=6)).run()
        unsteered = CampaignRunner(
            small_config(count=6, steer=False)
        ).run()
        assert steered.ok and unsteered.ok
        # whatever was selected, each seed means the same workload
        assert steered.steered and not unsteered.steered

    def test_mutation_self_test_is_selected_and_caught(self):
        runner = CampaignRunner(small_config())
        victim = runner.seed_for(2)  # a dag seed inside the pool
        report = CampaignRunner(
            small_config(mutate_seeds=frozenset([victim]))
        ).run()
        assert not report.ok
        assert victim in report.failing_seeds()

    def test_report_round_trip(self, tmp_path):
        report = CampaignRunner(small_config(count=4)).run()
        path = tmp_path / "report.json"
        report.save(str(path))
        loaded = CampaignReport.load(str(path))
        assert loaded.to_dict() == report.to_dict()
        assert "coverage" in report.to_json()

    def test_render_mentions_outcome(self):
        report = CampaignRunner(small_config(count=4)).run()
        text = report.render()
        assert "no divergences" in text
        assert "master seed 0" in text


class TestOracleSharpness:
    def test_batch_family_is_bitwise(self):
        for seed in range(200):
            spec = ScenarioSpec.from_seed(seed)
            if spec.family == "batch":
                outcome = execute_scenario(spec, small_config())
                assert outcome.ok, outcome.detail
                break
        else:
            pytest.skip("no batch seed in the first 200")

    def test_solver_family_records_demoting_solver(self):
        for seed in range(200):
            spec = ScenarioSpec.from_seed(seed)
            if spec.family == "solver":
                outcome = execute_scenario(spec, small_config())
                assert outcome.ok, outcome.detail
                assert spec.params["solver"] in (
                    outcome.coverage["solvers"]
                )
                break
        else:
            pytest.skip("no solver seed in the first 200")

    def test_sampled_batch_family_is_bitwise(self):
        spec = ScenarioSpec.from_seed(10)
        assert spec.family == "batch" and spec.params["sampled"]
        outcome = execute_scenario(spec, small_config())
        assert outcome.ok, outcome.detail
        assert "ZeroOrderHold" in outcome.coverage["opcodes"] or (
            "UnitDelay" in outcome.coverage["opcodes"]
        )


def sampled_dag_spec():
    for seed in range(200):
        spec = ScenarioSpec.from_seed(seed)
        if spec.family == "dag_sampled":
            return spec
    pytest.skip("no dag_sampled seed in the first 200")


class TestGeneratedPrograms:
    """``dag_sampled`` runs ``generate_python`` and, with a compiler,
    the compiled ``generate_c`` program against the interpreter."""

    def test_sampled_dag_scenario_passes(self):
        outcome = execute_scenario(sampled_dag_spec(), small_config())
        assert outcome.ok, outcome.detail

    def test_a_wrong_python_record_is_caught(self, monkeypatch):
        original = repro.codegen.pygen.generate_python

        def corrupted(*args, **kwargs):
            return original(*args, **kwargs) + "\n".join([
                "_simulate = simulate",
                "def simulate(t_end, **kwargs):",
                "    out = _simulate(t_end, **kwargs)",
                "    out[LABELS[-1]][-1] += 1.0",
                "    return out",
            ])

        monkeypatch.setattr(
            repro.codegen.pygen, "generate_python", corrupted,
        )
        detail = _check_generated(sampled_dag_spec(), small_config())
        assert detail.startswith("generate_python vs interpreter"), detail

    @pytest.mark.skipif(
        not has_c_compiler(), reason="no C compiler on this host",
    )
    def test_a_wrong_c_record_is_caught(self, monkeypatch):
        original = repro.codegen.cgen.generate_c

        def six_digits(*args, **kwargs):
            return original(*args, **kwargs).replace("%.9g", "%.6g")

        monkeypatch.setattr(repro.codegen.cgen, "generate_c", six_digits)
        detail = _check_generated(sampled_dag_spec(), small_config())
        assert detail.startswith("generate_c vs interpreter"), detail

    @pytest.mark.skipif(
        not has_c_compiler(), reason="no C compiler on this host",
    )
    def test_a_signed_zero_is_the_same_value(self):
        # block n3 is a Sum "--" of two zeros at t = 0.0918: the emitted
        # ``- a - b`` prints -0 where the block's 0.0 - a - b records
        # 0.0, the same value to np.array_equal, as every executor is
        # compared
        spec = ScenarioSpec.from_seed(849719377)
        assert spec.family == "dag_sampled"
        assert _check_generated(spec, small_config()) is None


class SquareSpec(ScenarioSpec):
    """A ``dag`` scenario whose diagram is x' = x**2 from x(0) = 1,
    which blows up at t = 1."""

    def build(self):
        return square_diagram()


class TestDivergingPlants:
    """A :class:`SolverError` is an outcome every backend must share."""

    @pytest.fixture(autouse=True)
    def _quiet_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"):
            yield

    def check(self, t_end=1.5):
        backends = ["compiled-python"]
        if has_c_compiler():
            backends.append("native-c")
        config = CampaignConfig(h=0.01, t_end=t_end, backends=backends)
        spec = SquareSpec(seed=1, family="dag", params={"solver": "rk4"})
        return _run_differential(spec, config, _Recorder())

    def test_every_backend_raises_the_solver_error(self):
        assert self.check() is None

    def test_a_backend_returning_inf_is_a_divergence(self, monkeypatch):
        monkeypatch.setattr(loop, "check_finite", lambda *args: None)
        detail = self.check()
        assert detail.startswith("compiled-python"), detail
        assert "ran where the interpreter raised" in detail

    def test_a_backend_may_not_raise_alone(self, monkeypatch):
        def diverge(self, *args, **kwargs):
            raise SolverError("rk4: non-finite state at t=0.5")

        monkeypatch.setattr(PyKernelProgram, "run", diverge)
        detail = self.check(t_end=0.5)  # the plant is finite until t = 1
        assert "where the interpreter ran" in detail, detail

    def test_the_message_head_is_the_solvers(self, monkeypatch):
        def other(self, *args, **kwargs):
            raise SolverError("rk4: step size underflow")

        monkeypatch.setattr(PyKernelProgram, "run", other)
        detail = self.check()
        assert "not 'rk4: non-finite state'" in detail, detail
