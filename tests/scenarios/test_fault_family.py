"""The ``fault`` family: a crashed job resumed from its spool must land
on the uninterrupted run's probes, bitwise.

Master seed 6 draws scenario seed 6012363, a ``fault`` scenario that
crashes its job at major step 32; the job's retried attempt resumes
from the newest checkpoint in its spool.  The mutation self-test
corrupts the recovered side, and the oracle must see it.
"""

from __future__ import annotations

import tempfile

from repro.scenarios.campaign import (
    CampaignConfig, CampaignRunner, execute_scenario,
)
from repro.scenarios.spec import ScenarioSpec

FAULT_SEED = 6012363


def fault_spec() -> ScenarioSpec:
    spec = ScenarioSpec.from_seed(FAULT_SEED)
    assert spec.family == "fault"
    assert spec.params == {"crash_step": 32}
    return spec


class TestFaultFamily:
    def test_master_seed_six_draws_the_fault_seed(self):
        runner = CampaignRunner(CampaignConfig(seed=6))
        assert runner.seed_for(0) == FAULT_SEED

    def test_recovered_run_matches_the_uninterrupted_one(self, tmp_path):
        outcome = execute_scenario(
            fault_spec(), CampaignConfig(work_dir=str(tmp_path)),
        )
        assert outcome.ok, outcome.detail
        assert outcome.coverage == {
            "backends": ["interpreter"], "solvers": ["rk4"],
        }
        # the faulted job spooled checkpoints to resume from
        assert list((tmp_path / f"fault-{FAULT_SEED}").iterdir())

    def test_without_a_work_dir_the_spool_is_removed(
        self, tmp_path, monkeypatch,
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        outcome = execute_scenario(fault_spec(), CampaignConfig())
        assert outcome.ok, outcome.detail
        assert not list(tmp_path.glob("scenario-fault-*"))

    def test_mutation_is_caught(self, tmp_path):
        outcome = execute_scenario(fault_spec(), CampaignConfig(
            work_dir=str(tmp_path), mutate_seeds=frozenset({FAULT_SEED}),
        ))
        assert not outcome.ok
        assert outcome.detail == "fault recovery: probe 'u' diverges"
