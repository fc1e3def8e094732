"""Diagnostic vocabulary, registry plumbing and suppression."""

import pytest

from repro.check import (
    CheckConfig,
    Diagnostic,
    FixIt,
    default_registry,
    run_checks,
)
from repro.check.diagnostics import (
    apply_fixits,
    severity_rank,
    worst_severity,
)
from repro.check.registry import (
    CATEGORIES,
    Rule,
    RuleError,
    RuleRegistry,
    meets_threshold,
)

from tests.check.builders import loop_model, never_read_model


class TestDiagnostic:
    def test_str_rendering(self):
        d = Diagnostic("STR001", "error", "plant.loop", "cycle found")
        assert str(d) == "[STR001/error] plant.loop: cycle found"

    def test_severity_total_order(self):
        assert severity_rank("info") < severity_rank("warning")
        assert severity_rank("warning") < severity_rank("error")
        with pytest.raises(ValueError):
            severity_rank("fatal")

    def test_worst_severity(self):
        assert worst_severity([]) is None
        assert worst_severity(["info", "error", "warning"]) == "error"

    def test_meets_threshold(self):
        assert meets_threshold("error", "warning")
        assert meets_threshold("warning", "warning")
        assert not meets_threshold("info", "warning")

    def test_to_json_includes_details_and_fixit(self):
        d = Diagnostic(
            "SM001", "warning", "m.orphan", "unreachable",
            fixit=FixIt("remove it", lambda: None),
            details={"path": "orphan"},
        )
        out = d.to_json()
        assert out["code"] == "SM001"
        assert out["details"] == {"path": "orphan"}
        assert out["fixit"] == "remove it"

    def test_apply_fixits_counts(self):
        hits = []
        ds = [
            Diagnostic("X1", "warning", "a", "m",
                       fixit=FixIt("f", lambda: hits.append(1))),
            Diagnostic("X2", "warning", "b", "m"),
        ]
        assert apply_fixits(ds) == 1
        assert hits == [1]


class TestRegistry:
    def test_default_registry_covers_every_category(self):
        registry = default_registry()
        assert {r.category for r in registry.rules()} == set(CATEGORIES)

    def test_stable_codes_registered(self):
        codes = set(default_registry().codes())
        for code in (
            "STR001", "STR002", "STR003", "STR004", "STR005",
            "SM001", "SM002", "SM003", "SM004", "SM005",
            "THR001", "THR002", "SCHED001",
            "W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8", "W10",
        ):
            assert code in codes, code

    def test_duplicate_code_rejected(self):
        registry = RuleRegistry()
        registry.add(Rule("X1", "t", "plan", "warning", "", lambda c: None))
        with pytest.raises(RuleError):
            registry.add(
                Rule("X1", "t", "plan", "warning", "", lambda c: None)
            )

    def test_bad_category_and_severity_rejected(self):
        with pytest.raises(RuleError):
            Rule("X1", "t", "nope", "warning", "", lambda c: None)
        with pytest.raises(RuleError):
            Rule("X1", "t", "plan", "fatal", "", lambda c: None)

    def test_select_disable_categories(self):
        registry = default_registry()
        only = registry.active(CheckConfig(select={"STR001"}))
        assert [r.code for r in only] == ["STR001"]
        without = registry.active(CheckConfig(disable={"STR001"}))
        assert "STR001" not in [r.code for r in without]
        sm_only = registry.active(CheckConfig(select={"SM"}))
        assert sm_only and all(r.category == "sm" for r in sm_only)

    def test_each_category_is_one_code_prefix(self):
        # select= matches code prefixes, so a prefix selects a category
        # exactly when every code carries its category's prefix and no
        # code matches a second one
        prefixes = {
            "model": "W", "plan": "STR", "sm": "SM", "thread": "THR",
            "sched": "SCHED",
        }
        assert set(prefixes) == set(CATEGORIES)
        registry = default_registry()
        for category, prefix in prefixes.items():
            active = registry.active(CheckConfig(select={prefix}))
            assert active == [
                r for r in registry.rules() if r.category == category
            ], category
        for code in registry.codes():
            assert sum(
                code.startswith(prefix) for prefix in prefixes.values()
            ) == 1, code


class TestConfig:
    def test_severity_override_applied(self):
        result = run_checks(
            never_read_model(),
            config=CheckConfig(
                select={"STR003"}, severity={"STR003": "error"},
            ),
        )
        assert result.by_code("STR003")
        assert all(d.severity == "error" for d in result.by_code("STR003"))

    def test_unknown_override_severity_rejected(self):
        with pytest.raises(RuleError):
            CheckConfig(severity={"STR003": "fatal"})

    def test_config_suppression_by_code(self):
        cfg = CheckConfig(select={"STR001"}, suppress={"STR001"})
        assert not run_checks(loop_model(), config=cfg).diagnostics

    def test_config_suppression_by_subject_glob(self):
        base = run_checks(
            loop_model(), config=CheckConfig(select={"STR001"})
        )
        subject = base.diagnostics[0].subject
        hit = CheckConfig(
            select={"STR001"}, suppress={f"STR001:{subject}*"},
        )
        miss = CheckConfig(select={"STR001"}, suppress={"STR001:zz*"})
        assert not run_checks(loop_model(), config=hit).diagnostics
        assert run_checks(loop_model(), config=miss).diagnostics

    def test_inline_lint_suppress_on_element(self):
        model = loop_model()
        # the cycle diagnostic is attached to its first member; suppress
        # on both so the test is independent of extraction order
        for streamer in model.streamers:
            streamer.lint_suppress = ("STR001",)
        result = run_checks(model, config=CheckConfig(select={"STR001"}))
        assert not result.diagnostics

    def test_inline_lint_suppress_on_model(self):
        model = loop_model()
        model.lint_suppress = "STR001"
        result = run_checks(model, config=CheckConfig(select={"STR001"}))
        assert not result.diagnostics
