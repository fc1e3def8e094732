"""The O2 leg of the differential matrix.

O2 plans may fuse/reassociate arithmetic, so comparisons *across* opt
levels get a tight tolerance exactly when the plan's report shows fused
ops — and stay bitwise everywhere else.  The mutation self-test must
still kill through the tolerant path (a corrupted sample is far outside
any ulp drift).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios.campaign import (
    CampaignConfig,
    _diff_series,
    _diff_series as _diff_series_tol,
    _plan_reassociates,
    execute_scenario,
    replay,
)
from repro.scenarios.spec import ScenarioSpec


def _find_seed(family: str, start: int = 0, limit: int = 4000) -> int:
    for seed in range(start, start + limit):
        if ScenarioSpec.from_seed(seed).family == family:
            return seed
    raise AssertionError(f"no {family} seed in [{start}, {start + limit})")


class _FakeResult:
    def __init__(self, t, series, final_state):
        self.t = t
        self.series = series
        self.final_state = final_state


def _result(shift=0.0):
    t = np.linspace(0.0, 1.0, 65)
    base = np.sin(t * 3.0)
    return _FakeResult(
        t, {"y": base + shift}, np.array([1.0 + shift, 2.0]),
    )


class TestDiffSeriesTol:
    def test_ulp_drift_tolerated(self):
        a, b = _result(), _result(shift=1e-14)
        assert _diff_series(a, b, "x") is not None  # bitwise sees it
        assert _diff_series_tol(a, b, "x", rtol=1e-9) is None

    def test_real_divergence_still_caught(self):
        a, b = _result(), _result(shift=1e-3)
        detail = _diff_series_tol(a, b, "lbl", rtol=1e-9)
        assert detail is not None and "diverges beyond" in detail

    def test_grid_mismatch_never_tolerated(self):
        a, b = _result(), _result()
        b.t = b.t + 1e-15
        assert "time grids differ" in _diff_series_tol(a, b, "x", 1e-9)


class TestPlanReassociates:
    def test_only_o2_with_fusion_counts(self):
        class _Report:
            def counts(self):
                return {"fuse.ops_fused": 2, "dce.blocks_removed": 0}

        class _Plan:
            opt_report = _Report()

        assert _plan_reassociates(_Plan(), 2)
        assert not _plan_reassociates(_Plan(), 1)  # below O2: bitwise

        class _IdleReport:
            def counts(self):
                return {"fuse.ops_fused": 0}

        class _IdlePlan:
            opt_report = _IdleReport()

        assert not _plan_reassociates(_IdlePlan(), 2)
        assert not _plan_reassociates(object(), 2)  # no report at all


class TestO2Differential:
    def test_config_defaults_include_o2(self):
        assert 2 in CampaignConfig().opt_levels

    def test_differential_family_passes_at_o2(self):
        seed = _find_seed("feedback")
        config = CampaignConfig(
            t_end=0.1, backends=["compiled-python"],
            opt_levels=(0, 1, 2),
        )
        outcome = execute_scenario(ScenarioSpec.from_seed(seed), config)
        assert outcome.ok, outcome.detail

    def test_mutation_killed_at_o2(self):
        seed = _find_seed("dag")
        config = CampaignConfig(
            t_end=0.1, backends=["compiled-python"],
            opt_levels=(0, 1, 2), mutate_seeds=frozenset([seed]),
        )
        outcome = execute_scenario(ScenarioSpec.from_seed(seed), config)
        assert not outcome.ok

    def test_replay_covers_o2_passes(self):
        seed = _find_seed("plant")
        outcome = replay(seed, CampaignConfig(
            t_end=0.1, backends=["compiled-python"],
        ))
        assert outcome.ok, outcome.detail
