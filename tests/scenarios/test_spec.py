"""ScenarioSpec: seed purity, serialisation, build dispatch."""

import random

import pytest

from repro.scenarios.defects import DEFECTS
from repro.scenarios.spec import (
    DEMOTING_SOLVERS,
    FAMILIES,
    KERNEL_SOLVERS,
    ScenarioSpec,
)

FAMILY_NAMES = {name for name, __ in FAMILIES}


class TestFromSeed:
    def test_pure_function_of_seed(self):
        for seed in (0, 1, 17, 2**30, 1444356386):
            a = ScenarioSpec.from_seed(seed)
            b = ScenarioSpec.from_seed(seed)
            assert a == b
            assert a.family in FAMILY_NAMES

    def test_global_random_state_is_untouched(self):
        random.seed(99)
        before = random.getstate()
        ScenarioSpec.from_seed(123)
        assert random.getstate() == before

    def test_all_families_reachable(self):
        families = {
            ScenarioSpec.from_seed(seed).family for seed in range(400)
        }
        assert families == FAMILY_NAMES

    def test_solver_params_stay_in_their_lane(self):
        for seed in range(300):
            spec = ScenarioSpec.from_seed(seed)
            solver = spec.params.get("solver")
            if spec.family == "solver":
                assert solver in DEMOTING_SOLVERS
            elif solver is not None:
                assert solver in KERNEL_SOLVERS

    def test_batch_family_draws_sampled_dags_last(self):
        # the sampled draw comes after every other batch parameter, so
        # a batch seed keeps what it drew before the draw existed
        assert ScenarioSpec.from_seed(10).params == {
            "blocks": 12, "n": 6, "solver": "rk4", "sweep": True,
            "sampled": True,
        }
        assert ScenarioSpec.from_seed(33).params == {
            "blocks": 9, "n": 5, "solver": "heun", "sweep": False,
            "sampled": False,
        }
        drawn = set()
        for seed in range(500):
            spec = ScenarioSpec.from_seed(seed)
            if spec.family == "batch":
                subs = spec.build().subs.values()
                names = {type(sub).__name__ for sub in subs}
                if not spec.params["sampled"]:
                    assert not names & {"UnitDelay", "ZeroOrderHold"}
                drawn.add(spec.params["sampled"])
        assert drawn == {False, True}

    def test_defect_params_name_registered_defects(self):
        seen = set()
        for seed in range(600):
            spec = ScenarioSpec.from_seed(seed)
            if spec.family == "defect":
                assert spec.params["defect"] in DEFECTS
                seen.add(spec.params["defect"])
        assert len(seen) > 10  # the stream spreads over the registry


class TestSerialisation:
    def test_json_round_trip(self):
        for seed in (0, 5, 1444356386):
            spec = ScenarioSpec.from_seed(seed)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_from_mapping(self):
        spec = ScenarioSpec.from_mapping(
            {"seed": 7, "family": "dag", "params": {"blocks": 9}}
        )
        assert spec.seed == 7
        assert spec.family == "dag"
        assert spec.params == {"blocks": 9}


class TestBuildAndTargets:
    def test_every_family_builds(self):
        built = set()
        for seed in range(200):
            spec = ScenarioSpec.from_seed(seed)
            if spec.family in built:
                continue
            spec.build()
            built.add(spec.family)
        assert built == FAMILY_NAMES

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            ScenarioSpec(seed=0, family="nope").build()

    def test_defect_targets_predict_expected_codes(self):
        name = sorted(DEFECTS)[0]
        spec = ScenarioSpec(
            seed=0, family="defect", params={"defect": name}
        )
        assert spec.targets()["rules"] == DEFECTS[name].expected

    def test_diagram_targets_predict_opcodes(self):
        spec = ScenarioSpec.from_seed(2)
        while spec.family not in ("dag", "dag_sampled", "plant"):
            spec = ScenarioSpec.from_seed(spec.seed + 1)
        opcodes = spec.targets()["opcodes"]
        built_types = {
            type(sub).__name__ for sub in spec.build().subs.values()
        }
        assert built_types <= opcodes
