"""The pluggable rule registry and per-run configuration.

Every analyzer is a :class:`Rule`: a stable code, a category (``model``,
``plan``, ``sm``, ``thread``, ``sched``), a default severity, a one-line
rationale tying it back to the paper clause or W-rule it enforces, and a
check function ``check(ctx)`` that emits diagnostics through the
:class:`~repro.check.context.CheckContext`.

Rules self-register into the module-level :data:`DEFAULT_REGISTRY` via
the :meth:`RuleRegistry.rule` decorator when their defining module is
imported; embedders can build private registries with a subset or with
extra project-specific rules.

:class:`CheckConfig` carries the per-run knobs: select/disable by code,
per-code severity overrides, suppression patterns, and analysis
parameters (the sync interval assumed by the schedulability lint, the
minimum size of a constant-foldable subgraph worth reporting).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.check.diagnostics import SEVERITIES, severity_rank

#: the analyzer families, in the order they run
CATEGORIES = ("model", "plan", "sm", "thread", "sched")


class RuleError(Exception):
    """Raised for ill-formed rules or unknown codes in a config."""


@dataclass(frozen=True)
class Rule:
    """One registered static check."""

    code: str
    title: str
    category: str
    severity: str      # default severity; CheckConfig may override
    rationale: str     # paper clause / W-rule this enforces
    check: Callable = field(compare=False)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise RuleError(
                f"rule {self.code}: unknown category {self.category!r}; "
                f"expected one of {CATEGORIES}"
            )
        if self.severity not in SEVERITIES:
            raise RuleError(
                f"rule {self.code}: unknown severity {self.severity!r}"
            )


class RuleRegistry:
    """An ordered, code-keyed collection of rules."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def rule(
        self,
        code: str,
        title: str,
        category: str,
        severity: str,
        rationale: str = "",
    ) -> Callable:
        """Decorator: register ``check(ctx)`` under ``code``."""

        def decorate(func: Callable) -> Callable:
            self.add(Rule(code, title, category, severity, rationale, func))
            return func

        return decorate

    def add(self, rule: Rule) -> Rule:
        if rule.code in self._rules:
            raise RuleError(f"duplicate rule code {rule.code!r}")
        self._rules[rule.code] = rule
        return rule

    def get(self, code: str) -> Rule:
        try:
            return self._rules[code]
        except KeyError:
            raise RuleError(f"unknown rule code {code!r}") from None

    def rules(self) -> Tuple[Rule, ...]:
        return tuple(self._rules.values())

    def codes(self) -> Tuple[str, ...]:
        return tuple(self._rules)

    def __contains__(self, code: str) -> bool:
        return code in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def active(self, config: "CheckConfig") -> List[Rule]:
        """The rules this config enables, in registration order.

        A ``select`` entry matches either the exact code or a code
        prefix, so ``--select SCHED`` enables the whole sched family:
        each category's codes share one prefix (``W``, ``STR``, ``SM``,
        ``THR``, ``SCHED``).
        """
        out: List[Rule] = []
        for rule in self._rules.values():
            if config.select is not None and not any(
                rule.code == sel or rule.code.startswith(sel)
                for sel in config.select
            ):
                continue
            if rule.code in config.disable:
                continue
            out.append(rule)
        return out


#: the registry `run_checks` uses unless told otherwise; populated by
#: the rule modules importing this one (see repro.check.__init__)
DEFAULT_REGISTRY = RuleRegistry()


@dataclass
class CheckConfig:
    """Per-run configuration for the checker."""

    #: run only these codes (None = all registered)
    select: Optional[Set[str]] = None
    #: never run these codes
    disable: Set[str] = field(default_factory=set)
    #: per-code severity overrides, e.g. ``{"STR003": "error"}``
    severity: Dict[str, str] = field(default_factory=dict)
    #: suppression patterns: ``"CODE"`` or ``"CODE:subject-glob"``
    suppress: Set[str] = field(default_factory=set)
    #: sync interval assumed by the deadline-feasibility lint (SCHED001)
    sync_interval: float = 0.01
    #: SCHED004 warns when the sync interval's headroom over the minimum
    #: feasible interval falls below this fraction
    sched_sensitivity_margin: float = 0.2
    #: smallest constant-foldable subgraph worth reporting (STR004)
    min_fold_size: int = 2

    def __post_init__(self) -> None:
        for code, level in self.severity.items():
            if level not in SEVERITIES:
                raise RuleError(
                    f"severity override for {code}: unknown level {level!r}"
                )

    def effective_severity(self, code: str, default: str) -> str:
        return self.severity.get(code, default)

    def suppressed(self, code: str, subject: str) -> bool:
        for pattern in self.suppress:
            if ":" in pattern:
                pat_code, pat_subject = pattern.split(":", 1)
                if pat_code == code and fnmatch.fnmatch(subject, pat_subject):
                    return True
            elif pattern == code:
                return True
        return False


def suppressed_codes(obj) -> FrozenSet[str]:
    """Inline suppressions attached to a model element.

    Any checked object may carry ``lint_suppress``, an iterable of rule
    codes to silence on that element (and, for a streamer, on diagnostics
    whose subject is one of its ports).  This is the in-source escape
    hatch the examples use for intentional patterns.
    """
    codes: Iterable = getattr(obj, "lint_suppress", ()) or ()
    if isinstance(codes, str):
        codes = (codes,)
    return frozenset(str(code) for code in codes)


def meets_threshold(severity: str, fail_on: str) -> bool:
    """True if ``severity`` is at or above the ``fail_on`` threshold."""
    return severity_rank(severity) >= severity_rank(fail_on)
