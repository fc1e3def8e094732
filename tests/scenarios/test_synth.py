"""Scenario generators: synth_dag and the newer families."""

import numpy as np
import pytest

from repro.core.backend import CompileRequest, compile_program
from repro.core.network import FlatNetwork
from repro.scenarios.synth import (
    synth_control_model,
    synth_dag,
    synth_feedback,
    synth_multirate,
    synth_plant,
)

H = 1.0 / 512.0


def _fingerprint(diagram):
    plan = FlatNetwork([diagram.finalise()]).plan()
    return tuple(
        (node.leaf.name, type(node.leaf).__name__) for node in plan.nodes
    )


class TestSynthDagMove:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seeded_determinism(self, seed):
        a = synth_dag(seed, blocks=12)
        b = synth_dag(seed, blocks=12)
        assert _fingerprint(a) == _fingerprint(b)
        for name, sub in a.subs.items():
            assert sub.params == b.subs[name].params

    def test_runs_through_interpreter(self):
        program = compile_program(
            CompileRequest(diagram=synth_dag(5, blocks=12), h=H),
            "interpreter",
        )
        result = program.run(0.1)
        assert result.t[-1] == pytest.approx(0.1)
        for series in result.series.values():
            assert np.all(np.isfinite(series))


class TestFeedback:
    @pytest.mark.parametrize("seed", [0, 2, 9])
    def test_builds_and_runs(self, seed):
        d = synth_feedback(seed, blocks=10, loops=2)
        program = compile_program(
            CompileRequest(diagram=d, h=H), "interpreter",
        )
        result = program.run(0.1)
        for series in result.series.values():
            assert np.all(np.isfinite(series))

    def test_deterministic(self):
        assert _fingerprint(synth_feedback(4)) == _fingerprint(
            synth_feedback(4)
        )


class TestPlant:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_all_optimizer_passes_fire(self, seed):
        # the plant family carries deliberate bait for every pass
        network = FlatNetwork([synth_plant(seed).finalise()])
        plan = network.plan(opt_level=1)
        counts = plan.opt_report.counts()
        assert counts["dce.blocks_removed"] >= 1
        assert counts["fold.blocks_folded"] >= 1
        assert counts["cse.blocks_merged"] >= 1
        assert counts["fuse.chains"] >= 1

    def test_o0_o1_parity(self):
        results = {}
        for level in (0, 1):
            program = compile_program(
                CompileRequest(
                    diagram=synth_plant(2), h=H, opt_level=level,
                ),
                "interpreter",
            )
            results[level] = program.run(0.25)
        assert np.array_equal(results[0].t, results[1].t)
        for key in results[0].series:
            assert np.array_equal(
                results[0].series[key], results[1].series[key]
            ), f"series {key} broke under O1"


class TestModels:
    def test_control_model_runs(self):
        model = synth_control_model(3)
        model.run(0.2, validate=False)
        for name in ("y", "u"):
            trajectory = model.probe(name)
            assert len(trajectory.times) > 0

    @pytest.mark.parametrize("feedthrough", [False, True])
    def test_multirate_runs(self, feedthrough):
        model = synth_multirate(1, feedthrough=feedthrough)
        model.run(0.2, validate=False)
        probes = {"fast_y", "slow_y"} | (
            {"tap_y"} if feedthrough else set()
        )
        for name in probes:
            assert len(model.probe(name).times) > 0
