"""The campaign coverage ledger.

:mod:`repro.analysis.coverage` measures *one* state machine against its
own transition graph; campaigns need the same idea over a whole
toolchain.  :class:`CampaignCoverage` tracks five dimensions, each a
finite universe drawn from the live registries (never hard-coded where
a registry exists):

* **rules** — check-rule codes fired, out of
  :func:`repro.check.default_registry` (``W3`` is defensively
  unreachable, which is why the campaign bar is >= 90%, not 100%);
* **opcodes** — plan-node leaf types post-optimization, out of the
  generator grammar plus the optimizer's synthetic leaves;
* **solvers** — solver kinds run, out of
  :func:`repro.solvers.available_solvers`;
* **backends** — execution backends that actually ran (effective, not
  requested), out of :func:`repro.core.backend.available_backends`
  minus ``native-c`` when no compiler is usable;
* **passes** — optimizer passes that *rewrote something* (a pass that
  ran but changed nothing exercised no rewrite code), out of
  ``PASS_ORDER``.

Scenario executors record into a small per-scenario outcome set; the
runner merges those into the ledger in deterministic (seed) order, so
the final report is independent of worker scheduling.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Set

#: every block type the generator grammar can place in a plan, plus the
#: two synthetic leaves the optimizer introduces at O1
OPCODES: FrozenSet[str] = frozenset({
    # sources
    "Constant", "Sine", "Step",
    # ops
    "Gain", "Bias", "Sum", "Abs", "Saturation", "Integrator",
    "FirstOrderLag", "ZeroOrderHold", "UnitDelay",
    # sinks / controllers / plants
    "Scope", "PID", "SecondOrderSystem",
    # synthetic (O1 rewrites)
    "FoldedBlock", "FusedChain",
})

DIMENSIONS = ("rules", "opcodes", "solvers", "backends", "passes")


def rule_universe() -> FrozenSet[str]:
    from repro.check import default_registry

    return frozenset(default_registry().codes())


def solver_universe() -> FrozenSet[str]:
    from repro.solvers import available_solvers

    return frozenset(available_solvers())


def backend_universe() -> FrozenSet[str]:
    from repro.core.backend import available_backends, has_c_compiler

    names = set(available_backends())
    if not has_c_compiler():
        names.discard("native-c")
        names.discard("native-batch")
    return frozenset(names)


def pass_universe() -> FrozenSet[str]:
    from repro.core.opt.config import PASS_ORDER

    return frozenset(PASS_ORDER)


class CampaignCoverage:
    """A set ledger per dimension, checked against a fixed universe."""

    def __init__(self) -> None:
        self.universe: Dict[str, FrozenSet[str]] = {
            "rules": rule_universe(),
            "opcodes": OPCODES,
            "solvers": solver_universe(),
            "backends": backend_universe(),
            "passes": pass_universe(),
        }
        self.hit: Dict[str, Set[str]] = {
            dim: set() for dim in DIMENSIONS
        }

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, dim: str, values: Iterable[str]) -> None:
        if dim not in self.hit:
            raise KeyError(f"unknown coverage dimension {dim!r}")
        self.hit[dim].update(values)

    def record_solver(self, solver: str) -> None:
        self.record("solvers", [solver])

    def record_backend(self, backend: str) -> None:
        self.record("backends", [backend])

    def merge_outcome(self, outcome: Mapping[str, Iterable[str]]) -> None:
        """Fold one scenario's ``{dim: values}`` outcome sets in."""
        for dim, values in outcome.items():
            self.record(dim, values)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def unexercised(self, dim: str) -> FrozenSet[str]:
        return frozenset(self.universe[dim] - self.hit[dim])

    def fraction(self, dim: str) -> float:
        total = len(self.universe[dim])
        if not total:
            return 1.0
        return len(self.hit[dim] & self.universe[dim]) / total

    def complete(self, dim: str) -> bool:
        return not self.unexercised(dim)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for dim in DIMENSIONS:
            out[dim] = {
                "universe": sorted(self.universe[dim]),
                "hit": sorted(self.hit[dim] & self.universe[dim]),
                "extra": sorted(self.hit[dim] - self.universe[dim]),
                "missing": sorted(self.unexercised(dim)),
                "fraction": self.fraction(dim),
            }
        return out

    def render(self) -> str:
        lines: List[str] = ["campaign coverage:"]
        for dim in DIMENSIONS:
            missing = sorted(self.unexercised(dim))
            hit = len(self.hit[dim] & self.universe[dim])
            lines.append(
                f"  {dim:<9} {hit:3d}/{len(self.universe[dim]):<3d} "
                f"({self.fraction(dim):6.1%})"
                + (f"  missing: {', '.join(missing)}" if missing else "")
            )
        return "\n".join(lines)
