"""``HybridModel.validate``: the W-rules and STR001 over whole models."""

import pytest

from tests.conftest import ConstLeaf, GainLeaf, IntegratorLeaf, PING

from repro.check import ChecksFailedError
from repro.core.flowtype import SCALAR
from repro.core.model import HybridModel
from repro.core.streamer import Streamer


def rules_of(violations):
    return {v.code for v in violations}


class TestCleanModel:
    def test_no_errors(self, model):
        const = model.add_streamer(ConstLeaf("c", 1.0))
        integ = model.add_streamer(IntegratorLeaf("i"))
        model.add_flow(const.dport("y"), integ.dport("u"))
        assert model.validate(strict=True) == []

    def test_empty_model_valid(self, model):
        assert model.validate() == []


class TestW2Relays:
    def test_fully_wired_relay_ok(self, model):
        const = model.add_streamer(ConstLeaf("c", 1.0))
        a = model.add_streamer(IntegratorLeaf("a"))
        b = model.add_streamer(IntegratorLeaf("b"))
        relay = model.add_relay("split", SCALAR)
        model.add_flow(const.dport("y"), relay.input)
        model.add_flow(relay.out_a, a.dport("u"))
        model.add_flow(relay.out_b, b.dport("u"))
        assert model.validate() == []

    def test_half_wired_relay_flagged(self, model):
        const = model.add_streamer(ConstLeaf("c", 1.0))
        a = model.add_streamer(IntegratorLeaf("a"))
        relay = model.add_relay("split", SCALAR)
        model.add_flow(const.dport("y"), relay.input)
        model.add_flow(relay.out_a, a.dport("u"))
        # out_b dangling: relay must generate exactly two flows
        violations = model.validate(strict=False)
        assert "W2" in rules_of(violations)

    def test_strict_mode_raises(self, model):
        model.add_relay("dangling", SCALAR)
        with pytest.raises(ChecksFailedError):
            model.validate(strict=True)


class TestW7SPorts:
    def test_unconnected_sport_warns(self, model):
        streamer = model.add_streamer(ConstLeaf("c", 1.0))
        streamer.add_sport("ctl", PING.conjugate())
        violations = model.validate(strict=True)  # warnings pass
        assert any(v.code == "W7" and v.severity == "warning"
                   for v in violations)


class TestW8W12ViaNetwork:
    def test_unconnected_input_warns(self, model):
        model.add_streamer(IntegratorLeaf("i"))
        violations = model.validate(strict=True)
        assert any(v.code == "W8" and v.severity == "warning"
                   for v in violations)

    def test_algebraic_loop_is_error(self, model):
        a = model.add_streamer(GainLeaf("a"))
        b = model.add_streamer(GainLeaf("b"))
        model.add_flow(a.dport("y"), b.dport("u"))
        model.add_flow(b.dport("y"), a.dport("u"))
        with pytest.raises(ChecksFailedError) as excinfo:
            model.validate(strict=True)
        assert [v.code for v in excinfo.value.diagnostics] == ["STR001"]

    def test_double_driver_is_error(self, model):
        a = model.add_streamer(ConstLeaf("a", 1.0))
        b = model.add_streamer(ConstLeaf("b", 2.0))
        sink = model.add_streamer(IntegratorLeaf("sink"))
        model.add_flow(a.dport("y"), sink.dport("u"))
        model.add_flow(b.dport("y"), sink.dport("u"))
        violations = model.validate(strict=False)
        assert "W8" in rules_of(violations)
        assert any(v.severity == "error" for v in violations)


class TestW4W6Containment:
    def test_streamer_with_behaviour_attribute_flagged(self, model):
        streamer = model.add_streamer(ConstLeaf("c", 1.0))
        streamer.behaviour = object()  # simulate an illegal state machine
        violations = model.validate(strict=False)
        assert "W4" in rules_of(violations)

    def test_smuggled_capsule_flagged(self, model):
        """Even bypassing add_sub type checks, validation catches W6."""
        from repro.umlrt.capsule import Capsule

        top = Streamer("top")
        top.add_sub(ConstLeaf("inner", 1.0))
        smuggled = Capsule("smuggled")
        top.subs["smuggled"] = smuggled  # bypass the API guard
        model.add_streamer(top)
        violations = model.validate(strict=False)
        assert "W6" in rules_of(violations)


class TestViolationFormatting:
    def test_str_contains_rule_and_subject(self, model):
        model.add_relay("r", SCALAR)
        violations = model.validate(strict=False)
        text = str(violations[0])
        assert "W2" in text and "r" in text

    def test_validation_error_message(self, model):
        model.add_relay("r", SCALAR)
        with pytest.raises(ChecksFailedError) as excinfo:
            model.validate(strict=True)
        assert "'test' rejected by static checks" in str(excinfo.value)
        assert excinfo.value.subject == "test"

    def test_model_validate_method(self, model):
        assert model.validate() == []
