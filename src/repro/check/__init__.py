"""Static diagnostics for hybrid models: lint before you simulate.

The paper's structural laws (W-rules) are enforced at construction time;
this package adds the *whole-model* static analyses nothing enforces —
delay-free algebraic cycles with their full path, dead blocks, unread
outputs, constant-foldable subgraphs, unreachable states, overlapping
triggers, leaked timers, cross-thread races, infeasible deadlines — and
reports them as :class:`Diagnostic` records with stable codes, optional
machine-applicable fix-its and four surfaces:

* **library** — ``run_checks(model_or_plan)`` → :class:`CheckResult`;
* **CLI** — ``python -m repro.check examples/*.py --fail-on=error``;
* **service gate** — ``SimulationService(check_policy="enforce")``
  rejects defective jobs at submission with ``checks.failed`` metrics
  and a ``checks`` telemetry event;
* **model validation** — ``HybridModel.validate`` runs the ``W`` rules
  and STR001 before every run; in strict mode it raises the gate's
  :class:`ChecksFailedError`.

Rule codes and what they enforce are catalogued in DESIGN.md §8.
"""

from __future__ import annotations

from repro.check.diagnostics import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Diagnostic,
    FixIt,
    apply_fixits,
    severity_rank,
    worst_severity,
)
from repro.check.registry import (
    CATEGORIES,
    DEFAULT_REGISTRY,
    CheckConfig,
    Rule,
    RuleError,
    RuleRegistry,
    meets_threshold,
)
from repro.check.context import CheckContext, CheckTargetError, build_context
from repro.check.runner import (
    CheckResult, ChecksFailedError, autofix, run_checks,
)

_RULES_LOADED = False


def default_registry() -> RuleRegistry:
    """The shared registry with every built-in rule loaded."""
    global _RULES_LOADED
    if not _RULES_LOADED:
        # importing the rule modules registers them (decorator side
        # effect); deferred so `import repro` stays cheap
        from repro.check import (  # noqa: F401
            model_rules, plan_rules, sched_rules, sm_rules, thread_rules,
        )
        _RULES_LOADED = True
    return DEFAULT_REGISTRY


__all__ = [
    "CATEGORIES",
    "CheckConfig",
    "CheckContext",
    "CheckResult",
    "CheckTargetError",
    "ChecksFailedError",
    "DEFAULT_REGISTRY",
    "Diagnostic",
    "ERROR",
    "FixIt",
    "INFO",
    "Rule",
    "RuleError",
    "RuleRegistry",
    "SEVERITIES",
    "WARNING",
    "apply_fixits",
    "autofix",
    "build_context",
    "default_registry",
    "meets_threshold",
    "run_checks",
    "severity_rank",
    "worst_severity",
]
