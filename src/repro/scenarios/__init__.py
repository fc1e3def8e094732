"""Scenario synthesis and coverage-guided campaigns.

The standing correctness rig for the toolchain: seeded scenario
generators (:mod:`repro.scenarios.synth`), defect builders per check
rule (:mod:`repro.scenarios.defects`), a campaign-wide coverage ledger
(:mod:`repro.scenarios.coverage`) and the differential campaign driver
(:mod:`repro.scenarios.campaign`), with a CLI at
``python -m repro.scenarios`` (run / replay / report).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.scenarios.campaign": (
        "CampaignConfig", "CampaignReport", "CampaignRunner",
        "ScenarioOutcome", "execute_scenario", "replay",
    ),
    "repro.scenarios.coverage": ("OPCODES", "CampaignCoverage"),
    "repro.scenarios.defects": ("DEFECTS",),
    "repro.scenarios.spec": ("ScenarioSpec",),
    "repro.scenarios.synth": (
        "synth_control_model", "synth_dag", "synth_feedback",
        "synth_multirate", "synth_plant",
    ),
})

if TYPE_CHECKING:
    from repro.scenarios.campaign import (
        CampaignConfig,
        CampaignReport,
        CampaignRunner,
        ScenarioOutcome,
        execute_scenario,
        replay,
    )
    from repro.scenarios.coverage import OPCODES, CampaignCoverage
    from repro.scenarios.defects import DEFECTS
    from repro.scenarios.spec import ScenarioSpec
    from repro.scenarios.synth import (
        synth_control_model,
        synth_dag,
        synth_feedback,
        synth_multirate,
        synth_plant,
    )
