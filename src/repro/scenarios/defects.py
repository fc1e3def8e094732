"""Defect scenario builders — one per registered check-rule code.

The campaign's ``defect`` family exists to drive the *rules* coverage
dimension: each builder returns a check target (model, diagram or state
machine) seeded with exactly the flaw one rule catches, mirroring the
builders the checker's own tests use.  The registry maps a stable name
to the builder, the codes it must fire and any :class:`~repro.check.
CheckConfig` keywords the rule needs.

``W3`` has no builder: the DPort constructor already rejects a missing
flow type, so the rule is defensively unreachable — 25 of the 26
registered codes are coverable, which is what the campaign's >= 90%
rules bar is calibrated against.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Mapping, NamedTuple

from repro.core.dport import Direction
from repro.core.flowtype import SCALAR, DataKind, FlowType
from repro.core.model import HybridModel
from repro.core.streamer import Streamer
from repro.dataflow import (
    Bias, Constant, Gain, Integrator, MovingAverage, Step,
)
from repro.umlrt.capsule import Capsule
from repro.umlrt.protocol import Protocol
from repro.umlrt.statemachine import StateMachine

#: record flow types for the narrowing (STR005) and W1 builders
POS = FlowType.record("pos", {"x": DataKind.FLOAT})
POSVEL = FlowType.record(
    "posvel", {"x": DataKind.FLOAT, "v": DataKind.FLOAT}
)

#: protocol for the capsule builders; the conjugate role receives
#: exactly {"cmd"}
SCN = Protocol.define("Scn", outgoing=("cmd",), incoming=("ack",))


class RecordSource(Streamer):
    """Emits a record flow type on OUT ``out``."""

    def __init__(self, name: str, flow_type: FlowType) -> None:
        super().__init__(name)
        self.add_out("out", flow_type)


class RecordSink(Streamer):
    """Absorbs a record flow type on IN ``in`` (no outputs: a sink)."""

    direct_feedthrough = True

    def __init__(self, name: str, flow_type: FlowType) -> None:
        super().__init__(name)
        self.add_in("in", flow_type)


class TwoOut(Streamer):
    """One IN, two OUTs — for the never-read-output (STR003) builder."""

    direct_feedthrough = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.add_in("u", SCALAR)
        self.add_out("a", SCALAR)
        self.add_out("b", SCALAR)

    def compute_outputs(self, t, state):
        value = self.in_scalar("u")
        self.out_scalar("a", value)
        self.out_scalar("b", -value)


# ----------------------------------------------------------------------
# plan-rule defects (STR001-006)
# ----------------------------------------------------------------------
def str001_loop() -> HybridModel:
    """Gain <-> Bias: a delay-free algebraic loop."""
    model = HybridModel("loop")
    a = model.add_streamer(Gain("a", k=0.5))
    b = model.add_streamer(Bias("b", bias=1.0))
    model.add_flow(a.dport("out"), b.dport("in"))
    model.add_flow(b.dport("out"), a.dport("in"))
    return model


def str002_dead_chain() -> HybridModel:
    """Constant -> Gain -> Gain with an unread tail plus a live probe."""
    model = HybridModel("dead")
    prev = model.add_streamer(Constant("c0", value=1.0))
    for index in range(3):
        gain = model.add_streamer(Gain(f"g{index}", k=2.0))
        model.add_flow(prev.dport("out"), gain.dport("in"))
        prev = gain
    live = model.add_streamer(Step("live"))
    model.add_probe("y", live.dport("out"))
    return model


def str003_never_read() -> HybridModel:
    """A TwoOut block whose ``b`` output dangles."""
    model = HybridModel("tails")
    src = model.add_streamer(Step("src"))
    split = model.add_streamer(TwoOut("split"))
    model.add_flow(src.dport("out"), split.dport("u"))
    model.add_probe("a", split.dport("a"))
    return model


def str004_foldable() -> HybridModel:
    """Constant -> Gain -> Bias, probed: a constant-foldable subgraph."""
    model = HybridModel("fold")
    source = model.add_streamer(Constant("src", value=2.0))
    gain = model.add_streamer(Gain("g", k=3.0))
    bias = model.add_streamer(Bias("b", bias=1.0))
    model.add_flow(source.dport("out"), gain.dport("in"))
    model.add_flow(gain.dport("out"), bias.dport("in"))
    model.add_probe("y", bias.dport("out"))
    return model


def str005_narrowing() -> HybridModel:
    """A POS source driving a POSVEL sink: fields default silently."""
    model = HybridModel("narrow")
    source = model.add_streamer(RecordSource("src", POS))
    sink = model.add_streamer(RecordSink("sink", POSVEL))
    model.add_flow(source.dport("out"), sink.dport("in"))
    return model


def str006_no_emitter() -> HybridModel:
    """A block type without a codegen emitter (kernel-ineligible)."""
    model = HybridModel("noemit")
    src = model.add_streamer(Step("src"))
    avg = model.add_streamer(MovingAverage("avg", ts=0.01, window=4))
    model.add_flow(src.dport("out"), avg.dport("in"))
    model.add_probe("y", avg.dport("out"))
    return model


# ----------------------------------------------------------------------
# W well-formedness defects
# ----------------------------------------------------------------------
def w1_flow_narrowed() -> HybridModel:
    """A flow whose target pad was narrowed *after* wiring.

    The Flow constructor rejects non-subset connections outright, so the
    only way this state exists is post-construction mutation — exactly
    the drift W1 re-validates against.
    """
    model = HybridModel("w1")
    source = model.add_streamer(RecordSource("src", POSVEL))
    sink = model.add_streamer(RecordSink("sink", POSVEL))
    model.add_flow(source.dport("out"), sink.dport("in"))
    sink.dport("in").flow_type = POS  # POSVEL is no subset of POS
    return model


def w2_half_relay() -> HybridModel:
    """A relay with its ``out_b`` branch left dangling."""
    model = HybridModel("w2")
    const = model.add_streamer(Constant("c", value=1.0))
    sink = model.add_streamer(Integrator("a"))
    relay = model.add_relay("split", SCALAR)
    model.add_flow(const.dport("out"), relay.input)
    model.add_flow(relay.out_a, sink.dport("in"))
    model.add_probe("y", sink.dport("out"))
    return model


def w4_behaviour() -> HybridModel:
    """A streamer carrying a (forbidden) behaviour state machine."""
    model = HybridModel("w4")
    streamer = model.add_streamer(Constant("c", value=1.0))
    streamer.behaviour = object()
    return model


def w5_processing_capsule_dport() -> HybridModel:
    """A capsule DPort whose relay-only guarantee was switched off."""
    model = HybridModel("w5")
    capsule = Capsule("cap")
    model.add_capsule(capsule)
    port = model.add_capsule_dport(capsule, "d", Direction.IN, SCALAR)
    port.relay_only = False  # capsules must not process data
    return model


def w6_smuggled_capsule() -> HybridModel:
    """A capsule hidden inside a streamer's sub tree."""
    model = HybridModel("w6")
    top = Streamer("top")
    top.add_sub(Constant("inner", value=1.0))
    top.subs["smuggled"] = Capsule("smuggled")  # bypass the API guard
    model.add_streamer(top)
    return model


def w7_unbridged_sport() -> HybridModel:
    """An SPort never bridged to any capsule port."""
    model = HybridModel("w7")
    streamer = model.add_streamer(Constant("c", value=1.0))
    streamer.add_sport("ctl", SCN.conjugate())
    return model


def w8_undriven_input() -> HybridModel:
    """An IN DPort with no driver (holds its initial value forever)."""
    model = HybridModel("w8")
    integ = model.add_streamer(Integrator("i"))
    model.add_probe("y", integ.dport("out"))
    return model


def w10_double_thread() -> HybridModel:
    """One streamer claimed by two threads' run lists."""
    model = HybridModel("w10")
    gain = model.add_streamer(Gain("g", k=2.0))
    src = model.add_streamer(Step("src"))
    model.add_flow(src.dport("out"), gain.dport("in"))
    model.add_probe("y", gain.dport("out"))
    second = model.create_thread("second")
    second.streamers.append(gain)  # bypass assign(): double ownership
    return model


# ----------------------------------------------------------------------
# state-machine defects (SM001-005)
# ----------------------------------------------------------------------
def sm001_orphan() -> StateMachine:
    sm = StateMachine("m")
    sm.add_state("a")
    sm.add_state("b")
    sm.add_state("orphan")
    sm.initial("a")
    sm.add_transition("a", "b", trigger="go")
    sm.add_transition("b", "a", trigger="back")
    return sm


def sm002_shadowed() -> StateMachine:
    sm = StateMachine("m")
    for name in ("idle", "x", "y"):
        sm.add_state(name)
    sm.initial("idle")
    sm.add_transition("idle", "x", trigger=("p", "go"))
    sm.add_transition("idle", "y", trigger=("p", "go"))
    sm.add_transition("x", "idle", trigger="reset")
    sm.add_transition("y", "idle", trigger="reset")
    return sm


class _TriggerCapsule(Capsule):
    """A capsule whose machine waits on a signal its port can't carry."""

    def build_structure(self):
        self.create_port("p", SCN.conjugate())

    def build_behaviour(self):
        sm = StateMachine("ctl_sm")
        sm.add_state("idle")
        sm.add_state("busy")
        sm.initial("idle")
        sm.add_transition("idle", "busy", trigger=("p", "bogus"))
        sm.add_transition("busy", "idle", trigger=("p", "bogus"))
        return sm


class _TimerCapsule(Capsule):
    """Arms a timer on state entry and never cancels it on exit."""

    def build_structure(self):
        self.create_port("p", SCN.conjugate())

    def build_behaviour(self):
        def arm(capsule, message):
            capsule._pending = capsule.inform_in(1.0)

        sm = StateMachine("tmr_sm")
        sm.add_state("wait", entry=arm)
        sm.add_state("done")
        sm.initial("wait")
        sm.add_transition("wait", "done", trigger=("p", "cmd"))
        sm.add_transition("done", "wait", trigger=("p", "cmd"))
        return sm


def sm003_bad_trigger() -> HybridModel:
    model = HybridModel("sm3")
    model.add_capsule(_TriggerCapsule("ctl"))
    return model


def sm004_leaky_timer() -> HybridModel:
    model = HybridModel("sm4")
    model.add_capsule(_TimerCapsule("tmr"))
    return model


def sm005_guarded_choice() -> StateMachine:
    sm = StateMachine("m")
    sm.add_state("a")
    sm.add_state("b")
    sm.initial("a")
    choice = sm.add_choice("pick")
    choice.add_branch("b", guard=lambda c, m: False)
    sm.add_transition("a", "pick", trigger="go")
    sm.add_transition("b", "a", trigger="back")
    return sm


# ----------------------------------------------------------------------
# thread / sched defects
# ----------------------------------------------------------------------
def thr001_cross_thread() -> HybridModel:
    model = HybridModel("xt")
    fast = model.create_thread("fast", h=1e-3)
    src = model.add_streamer(Step("src"))
    gain = model.add_streamer(Gain("g", k=2.0), thread=fast)
    model.add_flow(src.dport("out"), gain.dport("in"))
    model.add_probe("y", gain.dport("out"))
    return model


def thr002_shared_state() -> HybridModel:
    model = HybridModel("shared")
    fast = model.create_thread("fast", h=1e-3)
    a = Gain("a", k=2.0)
    b = Gain("b", k=2.0)
    b.params = a.params  # one mutable dict on two threads
    model.add_streamer(a)
    model.add_streamer(b, thread=fast)
    src = model.add_streamer(Step("src"))
    model.add_flow(src.dport("out"), a.dport("in"))
    model.add_flow(src.dport("out"), b.dport("in"))
    model.add_probe("ya", a.dport("out"))
    model.add_probe("yb", b.dport("out"))
    return model


def sched001_infeasible() -> HybridModel:
    model = HybridModel("sched")
    fast = model.create_thread("fast", h=1e-7)
    src = model.add_streamer(Step("src"))
    integ = model.add_streamer(Integrator("i"), thread=fast)
    model.add_flow(src.dport("out"), integ.dport("in"))
    model.add_probe("y", integ.dport("out"))
    return model


def sched002_blocking() -> HybridModel:
    """A fast thread (h=2e-5) sharing a params dict with leaves on a
    slow thread: under the minor-step mapping plain RTA accepts the set
    but the slow thread's critical section blocks the fast one past its
    deadline — blocking ALONE breaks the schedule (SCHED002), and the
    rate asymmetry is a priority inversion (SCHED003)."""
    model = HybridModel("inversion")
    fast = model.create_thread("fast", h=2e-5)
    slow = model.create_thread("slow", h=1e-3)
    src = Step("src")
    a = Gain("a", k=2.0)
    b = Gain("b", k=3.0)
    shared = a.params
    shared.update(src.params)
    b.params = shared
    src.params = shared
    model.add_streamer(src, thread=fast)
    model.add_streamer(a, thread=slow)
    model.add_streamer(b, thread=slow)
    model.add_flow(src.dport("out"), a.dport("in"))
    model.add_flow(a.dport("out"), b.dport("in"))
    model.add_probe("y", b.dport("out"))
    return model


def sched004_no_headroom() -> HybridModel:
    """Feasible at the default sync interval, but only just: checked
    with a 100% sensitivity margin, the interval sits inside the
    forbidden band above the minimum feasible one (SCHED004)."""
    model = HybridModel("tight")
    gain = model.add_streamer(Gain("g", k=0.5))
    integ = model.add_streamer(Integrator("i"))
    model.add_flow(gain.dport("out"), integ.dport("in"))
    model.add_flow(integ.dport("out"), gain.dport("in"))
    model.add_probe("y", integ.dport("out"))
    return model


class DefectSpec(NamedTuple):
    """One registered defect: builder, the codes it must fire, and any
    checker configuration the rule needs to report at all."""

    builder: Callable[[], object]
    expected: FrozenSet[str]
    config: Mapping[str, object]


def _spec(builder, *codes, **config) -> DefectSpec:
    return DefectSpec(builder, frozenset(codes), dict(config))


#: name -> DefectSpec; iterate ``sorted(DEFECTS)`` for determinism
DEFECTS: Dict[str, DefectSpec] = {
    "str001-loop": _spec(str001_loop, "STR001"),
    "str002-dead-chain": _spec(str002_dead_chain, "STR002"),
    "str003-never-read": _spec(str003_never_read, "STR003"),
    "str004-foldable": _spec(str004_foldable, "STR004"),
    "str005-narrowing": _spec(str005_narrowing, "STR005"),
    "str006-no-emitter": _spec(str006_no_emitter, "STR006"),
    "w1-flow-narrowed": _spec(w1_flow_narrowed, "W1"),
    "w2-half-relay": _spec(w2_half_relay, "W2"),
    "w4-behaviour": _spec(w4_behaviour, "W4"),
    "w5-processing-capsule-dport": _spec(
        w5_processing_capsule_dport, "W5"
    ),
    # the smuggled capsule breaks leaf enumeration in unrelated rules
    # (it is exactly the containment violation W6 exists to catch), so
    # this one runs the W rules only
    "w6-smuggled-capsule": _spec(w6_smuggled_capsule, "W6", select={"W"}),
    "w7-unbridged-sport": _spec(w7_unbridged_sport, "W7"),
    "w8-undriven-input": _spec(w8_undriven_input, "W8"),
    "w10-double-thread": _spec(w10_double_thread, "W10"),
    "sm001-orphan": _spec(sm001_orphan, "SM001"),
    "sm002-shadowed": _spec(sm002_shadowed, "SM002"),
    "sm003-bad-trigger": _spec(sm003_bad_trigger, "SM003"),
    "sm004-leaky-timer": _spec(sm004_leaky_timer, "SM004"),
    "sm005-guarded-choice": _spec(sm005_guarded_choice, "SM005"),
    "thr001-cross-thread": _spec(thr001_cross_thread, "THR001"),
    "thr002-shared-state": _spec(thr002_shared_state, "THR002"),
    "sched001-infeasible": _spec(sched001_infeasible, "SCHED001"),
    "sched002-blocking": _spec(
        sched002_blocking, "SCHED002", "SCHED003"
    ),
    "sched004-no-headroom": _spec(
        sched004_no_headroom, "SCHED004", sched_sensitivity_margin=1.0
    ),
}

#: every code at least one defect builder fires
COVERED_CODES: FrozenSet[str] = frozenset().union(
    *(spec.expected for spec in DEFECTS.values())
)
