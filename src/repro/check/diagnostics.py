"""The diagnostic vocabulary of the static checker.

A :class:`Diagnostic` is one finding: a *stable code* (``STR001``,
``SM002``, ``W8``, ...) that tools and CI can match on, a severity, the
qualified path of the offending element, a human message, optional
machine-readable ``details`` and an optional machine-applicable
:class:`FixIt`.

Codes are stable API: tests pin them, suppressions name them, and the
service gate reports them — renaming a code is a breaking change.
Severities form a total order (``info < warning < error``) so thresholds
like ``--fail-on=warning`` are a simple rank comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

#: the three severity levels, in ascending order of badness
INFO = "info"
WARNING = "warning"
ERROR = "error"

SEVERITIES = (INFO, WARNING, ERROR)
_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Ascending rank of a severity name (unknown names are rejected)."""
    try:
        return _RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


def worst_severity(severities) -> Optional[str]:
    """The highest-ranked severity in an iterable, or None if empty."""
    worst: Optional[str] = None
    for severity in severities:
        if worst is None or severity_rank(severity) > severity_rank(worst):
            worst = severity
    return worst


@dataclass(frozen=True)
class FixIt:
    """A machine-applicable repair for one diagnostic.

    ``apply`` mutates the checked model in place (remove the shadowed
    transition, delete the dead block and its flows, ...).  Fix-its are
    conservative: a rule only attaches one when the repair is provably
    behaviour-preserving for the *reported defect* — applying every
    fix-it and re-linting must converge to a clean model (the property
    test in ``tests/check/test_fixits.py`` holds the checker to that).
    """

    description: str
    apply: Callable[[], None] = field(compare=False)

    def __call__(self) -> None:
        self.apply()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixIt({self.description!r})"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static checker: ``(code, severity, subject,
    message)``, plus an optional fix-it and machine-readable details."""

    code: str       # stable rule code, e.g. "STR001", "SM002", "W8"
    severity: str   # "info" | "warning" | "error"
    subject: str    # qualified path of the offending element
    message: str
    #: optional machine-applicable repair
    fixit: Optional[FixIt] = None
    #: machine-readable extras (cycle paths, guard/trigger info, ...)
    details: Optional[Mapping[str, Any]] = None

    def __str__(self) -> str:
        return f"[{self.code}/{self.severity}] {self.subject}: {self.message}"

    @property
    def rank(self) -> int:
        return severity_rank(self.severity)

    def to_json(self) -> dict:
        """A plain-dict rendering for ``--format=json`` and artefacts."""
        out: dict = {
            "code": self.code,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
        }
        if self.details:
            out["details"] = dict(self.details)
        if self.fixit is not None:
            out["fixit"] = self.fixit.description
        return out


def apply_fixits(diagnostics) -> int:
    """Apply every attached fix-it; returns how many were applied.

    The caller is expected to re-run the checks afterwards — repairs can
    cascade (removing a dead block may orphan its upstream source, which
    the next pass then flags and repairs in turn).
    """
    applied = 0
    for diagnostic in diagnostics:
        if diagnostic.fixit is not None:
            diagnostic.fixit()
            applied += 1
    return applied
