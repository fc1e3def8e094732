"""Running the rules: ``run_checks``, results, and auto-fixing.

``run_checks(target)`` is the library surface the CLI, the service gate
and ``HybridModel.validate`` all sit on: normalise the target into a
:class:`~repro.check.context.CheckContext`, run every enabled rule in
registration order, and hand back a :class:`CheckResult` — an ordered
diagnostic list with severity accessors, a pass/fail threshold test and
text/JSON renderings.

``autofix(target)`` applies machine-applicable fix-its to a fixpoint:
repairs cascade (deleting a dead block can orphan its source, which the
next pass removes), so it re-lints after every round until no fixable
diagnostic remains.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.check.context import CheckContext, build_context
from repro.check.diagnostics import (
    Diagnostic, apply_fixits, severity_rank, worst_severity,
)
from repro.check.registry import (
    CheckConfig, RuleRegistry, meets_threshold,
)


class ChecksFailedError(Exception):
    """Static checks found error-severity diagnostics.

    Raised by a strict ``HybridModel.validate`` and by the service gate
    under ``check_policy="enforce"``.  :attr:`subject` names what was
    checked; :attr:`diagnostics` holds the error records.
    """

    def __init__(self, subject: str, diagnostics) -> None:
        self.subject = subject
        self.diagnostics = list(diagnostics)
        lines = "\n".join(str(d) for d in self.diagnostics)
        super().__init__(
            f"{subject!r} rejected by static checks "
            f"({len(self.diagnostics)} error(s)):\n{lines}"
        )


class CheckResult:
    """The ordered findings of one checker run."""

    def __init__(
        self, diagnostics: List[Diagnostic], subject: str = "model"
    ) -> None:
        self.diagnostics = list(diagnostics)
        self.subject = subject

    # -- severity views -------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "info"]

    @property
    def worst(self) -> Optional[str]:
        return worst_severity(d.severity for d in self.diagnostics)

    def ok(self, fail_on: str = "error") -> bool:
        """True when nothing at/above the ``fail_on`` threshold fired."""
        return not any(
            meets_threshold(d.severity, fail_on) for d in self.diagnostics
        )

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    # -- renderings -----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
        }

    def format_text(self) -> str:
        if not self.diagnostics:
            return f"{self.subject}: clean"
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-severity_rank(d.severity), d.code, d.subject),
        )
        lines = [str(d) for d in ordered]
        lines.append(
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info(s)"
        )
        return "\n".join(lines)

    # -- container protocol --------------------------------------------
    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckResult({self.subject!r}, errors={len(self.errors)}, "
            f"warnings={len(self.warnings)}, infos={len(self.infos)})"
        )


def run_checks(
    target: Any,
    config: Optional[CheckConfig] = None,
    registry: Optional[RuleRegistry] = None,
) -> CheckResult:
    """Statically analyse a model, diagram, plan or state machine.

    Runs without executing the target: no scheduler build, no solver
    step, no capsule start.  ``config`` selects/disables rules and
    overrides severities; ``registry`` swaps the rule set entirely.
    """
    from repro.check import default_registry

    cfg = config if config is not None else CheckConfig()
    reg = registry if registry is not None else default_registry()
    ctx = build_context(target, cfg)
    for rule in reg.active(cfg):
        ctx._rule = rule
        rule.check(ctx)
    ctx._rule = None
    return CheckResult(ctx.diagnostics, subject=ctx.subject)


def autofix(
    target: Any,
    config: Optional[CheckConfig] = None,
    registry: Optional[RuleRegistry] = None,
    max_rounds: int = 32,
) -> CheckResult:
    """Apply fix-its to a fixpoint; returns the final (post-fix) result.

    Each round re-lints and applies every attached fix-it; stops when a
    round fixes nothing (or after ``max_rounds``, a cascade backstop).
    """
    result = run_checks(target, config=config, registry=registry)
    for __ in range(max_rounds):
        if apply_fixits(result.diagnostics) == 0:
            break
        result = run_checks(target, config=config, registry=registry)
    return result


__all__ = [
    "CheckContext", "CheckResult", "ChecksFailedError", "autofix",
    "run_checks",
]
