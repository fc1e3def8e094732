"""Scenario specifications — the seed-to-workload contract.

A :class:`ScenarioSpec` is a *pure function of its seed*:
:meth:`ScenarioSpec.from_seed` derives the family and every parameter
from one ``random.Random(seed)`` stream and nothing else.  That purity
is what makes ``python -m repro.scenarios replay --seed <s>`` exact —
the campaign runner's coverage steering only *selects among* candidate
seeds, it never rewrites what a seed means, so a failing seed replays
to the identical workload on any machine regardless of what the ledger
looked like when the campaign generated it.

Families
--------
``dag`` / ``dag_sampled``
    Random feed-forward diagram mixes (:func:`~repro.scenarios.synth.
    synth_dag`), run differentially across backends at O0/O1.
``feedback``
    The same grammar closed with seeded delay-broken loops
    (:func:`~repro.scenarios.synth.synth_feedback`).
``plant``
    PID-over-plant control families with optimizer bait for all four
    passes (:func:`~repro.scenarios.synth.synth_plant`).
``batch``
    One diagram, continuous or sampled, N instances:
    :class:`~repro.core.batch.BatchSimulator` against the sequential
    interpreter reference, bitwise.
``solver``
    Adaptive/implicit solver kinds (the ones compiled kernels demote
    on) through the interpreter, run-twice determinism.
``fault``
    A control model through the service :class:`~repro.service.jobs.
    SingleRunJob` with an injected crash, checkpoint spool and retry —
    recovered finals must equal the uninterrupted run's.
``multirate``
    Two-rate :class:`~repro.core.model.HybridModel` threads
    (:func:`~repro.scenarios.synth.synth_multirate`), rerun
    determinism plus lint harvest.
``defect``
    One registered defect builder (:mod:`repro.scenarios.defects`),
    driving the rules coverage dimension.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Tuple

#: fixed-step solver kinds every execution backend can kernelise
KERNEL_SOLVERS: Tuple[str, ...] = ("euler", "heun", "rk4")

#: solver kinds that demote compiled backends to the interpreter
DEMOTING_SOLVERS: Tuple[str, ...] = (
    "backward_euler", "rk45", "trapezoidal",
)

#: family -> draw weight; heavier families carry more of the coverage
FAMILIES: Tuple[Tuple[str, int], ...] = (
    ("dag", 3),
    ("dag_sampled", 2),
    ("feedback", 2),
    ("plant", 2),
    ("batch", 1),
    ("solver", 1),
    ("fault", 1),
    ("multirate", 1),
    ("defect", 3),
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-determined scenario: seed, family and drawn params."""

    seed: int
    family: str
    params: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_seed(seed: int) -> "ScenarioSpec":
        """The one true seed -> spec mapping (keep it pure!)."""
        from repro.scenarios.defects import DEFECTS

        rng = random.Random(seed)
        family = rng.choices(
            [name for name, __ in FAMILIES],
            weights=[weight for __, weight in FAMILIES],
        )[0]
        params: Dict[str, Any] = {}
        if family in ("dag", "dag_sampled"):
            params["blocks"] = rng.randint(8, 20)
            params["solver"] = rng.choice(KERNEL_SOLVERS)
        elif family == "feedback":
            params["blocks"] = rng.randint(8, 16)
            params["loops"] = rng.randint(1, 3)
            params["solver"] = rng.choice(KERNEL_SOLVERS)
        elif family == "plant":
            params["solver"] = rng.choice(KERNEL_SOLVERS)
        elif family == "batch":
            params["blocks"] = rng.randint(6, 14)
            params["n"] = rng.randint(3, 6)
            params["solver"] = rng.choice(KERNEL_SOLVERS)
            params["sweep"] = rng.random() < 0.5
            # drawn last, so a seed keeps the parameters drawn before
            params["sampled"] = rng.random() < 0.5
        elif family == "solver":
            params["blocks"] = rng.randint(6, 12)
            params["solver"] = rng.choice(DEMOTING_SOLVERS)
        elif family == "fault":
            params["crash_step"] = rng.randint(20, 60)
        elif family == "multirate":
            params["feedthrough"] = rng.random() < 0.5
        elif family == "defect":
            params["defect"] = rng.choice(sorted(DEFECTS))
        return ScenarioSpec(seed=seed, family=family, params=params)

    # ------------------------------------------------------------------
    # workload construction
    # ------------------------------------------------------------------
    def build(self):
        """The family's workload object (diagram, model or check
        target), freshly constructed — safe to call repeatedly."""
        from repro.scenarios import synth
        from repro.scenarios.defects import DEFECTS

        p = self.params
        if self.family == "dag":
            return synth.synth_dag(self.seed, blocks=p["blocks"])
        if self.family == "dag_sampled":
            return synth.synth_dag(
                self.seed, blocks=p["blocks"], sampled=True,
            )
        if self.family == "feedback":
            return synth.synth_feedback(
                self.seed, blocks=p["blocks"], loops=p["loops"],
            )
        if self.family == "plant":
            return synth.synth_plant(self.seed)
        if self.family in ("batch", "solver"):
            return synth.synth_dag(
                self.seed, blocks=p["blocks"],
                sampled=p.get("sampled", False),
            )
        if self.family == "fault":
            return synth.synth_control_model(self.seed)
        if self.family == "multirate":
            return synth.synth_multirate(
                self.seed, feedthrough=p["feedthrough"],
            )
        if self.family == "defect":
            return DEFECTS[p["defect"]].builder()
        raise ValueError(f"unknown scenario family {self.family!r}")

    # ------------------------------------------------------------------
    # steering metadata
    # ------------------------------------------------------------------
    def targets(self) -> Dict[str, FrozenSet[str]]:
        """Coverage keys this scenario is *predicted* to contribute.

        Used only to rank candidates during steering — approximate by
        design (pre-optimization opcodes, declared rule codes), never a
        substitute for what the executors actually record.
        """
        from repro.scenarios.defects import DEFECTS

        out: Dict[str, FrozenSet[str]] = {}
        if self.family == "defect":
            out["rules"] = DEFECTS[self.params["defect"]].expected
            return out
        solver = self.params.get("solver")
        if solver:
            out["solvers"] = frozenset([solver])
        if self.family == "batch":
            out["backends"] = frozenset(["batch"])
        elif self.family == "solver":
            out["backends"] = frozenset(["interpreter"])
        if self.family in (
            "dag", "dag_sampled", "feedback", "plant", "batch",
        ):
            target = self.build()
            opcodes = {
                type(sub).__name__ for sub in target.subs.values()
            }
            if self.family == "plant":
                # the bait substructures guarantee both synthetic leaves
                opcodes.update(("FoldedBlock", "FusedChain"))
            out["opcodes"] = frozenset(opcodes)
        return out

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "family": self.family,
                "params": dict(self.params),
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "ScenarioSpec":
        data = json.loads(text)
        return ScenarioSpec(
            seed=int(data["seed"]),
            family=str(data["family"]),
            params=dict(data.get("params", {})),
        )

    @staticmethod
    def from_mapping(data: Mapping[str, Any]) -> "ScenarioSpec":
        return ScenarioSpec(
            seed=int(data["seed"]),
            family=str(data["family"]),
            params=dict(data.get("params", {})),
        )
