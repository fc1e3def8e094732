"""Trace-validation of the static RTA bounds (the ISSUE's harness).

A matrix of hybrid models — single- and multi-thread, multirate, with
and without shared mutable state, with a capsule controller — is run
under an instrumented :class:`~repro.core.hybrid.HybridScheduler`; for
every model the statically computed response-time bound must dominate
the worst response actually observed in the trace.  A violation means
the engine's priority model has diverged from the runtime.
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import (
    ConstLeaf, DecayLeaf, GainLeaf, IntegratorLeaf,
)

from repro.analysis import schedvalidate
from repro.analysis.schedvalidate import (
    SchedulerProbe,
    ValidationReport,
    validate_schedulability,
)
from repro.core.model import HybridModel
from repro.umlrt.capsule import Capsule
from repro.umlrt.protocol import Protocol
from repro.umlrt.statemachine import StateMachine

CMD = Protocol.define("VCmd", outgoing=("set_value",), incoming=("ack",))


class SeededClock:
    """Stands in for the probe's :mod:`time`: each reading advances by
    a seeded step between 10 and 30 us.  Wall-clock costs put every
    slice a preemption away from the 10 ms period, where a WCET times
    ``headroom`` fails the task set before dominance is even checked;
    these stay far below it, yet still vary from slice to slice (the
    largest step is under 4x the smallest), so a priority order that
    diverged from the runtime still breaks dominance."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._now = 0.0

    def perf_counter(self) -> float:
        self._now += self._rng.uniform(10e-6, 30e-6)
        return self._now


@pytest.fixture
def seeded_clock(monkeypatch):
    monkeypatch.setattr(schedvalidate, "_time", SeededClock(2005))


# ----------------------------------------------------------------------
# the model matrix
# ----------------------------------------------------------------------
def single_decay() -> HybridModel:
    model = HybridModel("decay")
    model.add_streamer(DecayLeaf("d", lam=2.0))
    model.add_probe("y", model.streamers[0].dport("y"))
    return model


def integrator_ramp() -> HybridModel:
    model = HybridModel("ramp")
    const = model.add_streamer(ConstLeaf("c", 2.0))
    integ = model.add_streamer(IntegratorLeaf("i"))
    model.add_flow(const.dport("y"), integ.dport("u"))
    model.add_probe("y", integ.dport("y"))
    return model


def gain_chain() -> HybridModel:
    model = HybridModel("chain")
    const = model.add_streamer(ConstLeaf("c", 1.0))
    a = model.add_streamer(GainLeaf("a", k=2.0))
    b = model.add_streamer(GainLeaf("b", k=3.0))
    model.add_flow(const.dport("y"), a.dport("u"))
    model.add_flow(a.dport("y"), b.dport("u"))
    model.add_probe("y", b.dport("y"))
    return model


def feedback_loop() -> HybridModel:
    model = HybridModel("feedback")
    gain = model.add_streamer(GainLeaf("g", k=-0.5))
    integ = model.add_streamer(IntegratorLeaf("i", y0=1.0))
    model.add_flow(integ.dport("y"), gain.dport("u"))
    model.add_flow(gain.dport("y"), integ.dport("u"))
    model.add_probe("y", integ.dport("y"))
    return model


def two_threads_independent() -> HybridModel:
    model = HybridModel("two-threads")
    fast = model.create_thread("fast", h=5e-4)
    model.add_streamer(DecayLeaf("a", lam=1.0), thread=fast)
    model.add_streamer(DecayLeaf("b", lam=2.0))
    model.add_probe("ya", model.streamers[0].dport("y"))
    model.add_probe("yb", model.streamers[1].dport("y"))
    return model


def two_threads_shared_state() -> HybridModel:
    model = HybridModel("two-threads-shared")
    fast = model.create_thread("fast", h=5e-4)
    src = ConstLeaf("src", 1.0)
    a = GainLeaf("a", k=2.0)
    shared = a.params
    shared.update(src.params)
    src.params = shared  # one dict across both threads
    model.add_streamer(src, thread=fast)
    model.add_streamer(a)
    model.add_flow(src.dport("y"), a.dport("u"))
    model.add_probe("y", a.dport("y"))
    return model


def three_rates() -> HybridModel:
    model = HybridModel("three-rates")
    mid = model.create_thread("mid", h=5e-4)
    slow = model.create_thread("slow", h=2e-3)
    model.add_streamer(DecayLeaf("a", lam=1.0))
    model.add_streamer(DecayLeaf("b", lam=2.0), thread=mid)
    model.add_streamer(DecayLeaf("c", lam=3.0), thread=slow)
    return model


def wide_fanout() -> HybridModel:
    model = HybridModel("fanout")
    src = model.add_streamer(ConstLeaf("src", 1.0))
    for index in range(6):
        gain = model.add_streamer(GainLeaf(f"g{index}", k=float(index)))
        model.add_flow(src.dport("y"), gain.dport("u"))
    return model


class _Tuner(Capsule):
    """Retunes a gain once via a timer (gives the model a controller)."""

    def build_structure(self):
        self.create_port("cmd", CMD.base())

    def build_behaviour(self):
        sm = StateMachine("tuner")
        sm.add_state("waiting")
        sm.add_state("done")
        sm.initial("waiting")
        sm.add_transition(
            "waiting", "done", trigger=("timer", "timeout"),
            action=lambda c, m: c.send("cmd", "set_value", 5.0),
        )
        return sm

    def on_start(self):
        self.inform_in(0.02)


class _TunableGain(GainLeaf):
    def __init__(self, name):
        super().__init__(name, k=1.0)
        self.add_sport("tune", CMD.conjugate())

    def handle_signal(self, sport_name, message):
        if message.signal == "set_value":
            self.params["k"] = float(message.data)


def capsule_controlled() -> HybridModel:
    model = HybridModel("capsule")
    tuner = model.add_capsule(_Tuner("tuner"))
    const = model.add_streamer(ConstLeaf("c", 1.0))
    gain = model.add_streamer(_TunableGain("g"))
    model.add_flow(const.dport("y"), gain.dport("u"))
    model.connect_sport(tuner.port("cmd"), gain.sport("tune"))
    model.add_probe("y", gain.dport("y"))
    return model


def capsule_multirate() -> HybridModel:
    model = HybridModel("capsule-multirate")
    fast = model.create_thread("fast", h=5e-4)
    tuner = model.add_capsule(_Tuner("tuner"))
    const = model.add_streamer(ConstLeaf("c", 1.0), thread=fast)
    gain = model.add_streamer(_TunableGain("g"))
    model.add_flow(const.dport("y"), gain.dport("u"))
    model.connect_sport(tuner.port("cmd"), gain.sport("tune"))
    return model


def cluster_cruise() -> HybridModel:
    from repro.cluster.models import cruise

    return cruise()


def cluster_lag() -> HybridModel:
    from repro.cluster.models import lag

    return lag()


MATRIX = [
    single_decay,
    integrator_ramp,
    gain_chain,
    feedback_loop,
    two_threads_independent,
    two_threads_shared_state,
    three_rates,
    wide_fanout,
    capsule_controlled,
    capsule_multirate,
    cluster_cruise,
    cluster_lag,
]


def test_matrix_is_at_least_ten_models():
    # the ISSUE's acceptance floor: dominance demonstrated on >= 10
    # traced models
    assert len(MATRIX) >= 10


@pytest.mark.usefixtures("seeded_clock")
@pytest.mark.parametrize(
    "factory", MATRIX, ids=[f.__name__ for f in MATRIX],
)
def test_static_bound_dominates_trace(factory):
    report = validate_schedulability(
        factory, t_end=0.06, sync_interval=0.01,
    )
    assert report.steps > 0
    assert report.observed, "probe recorded no responses"
    assert report.dominates, (
        f"static bound violated: margins {report.margins}"
    )
    assert all(margin >= 0.0 for margin in report.margins.values())


@pytest.mark.usefixtures("seeded_clock")
def test_headroom_scales_bounds_up():
    tight = validate_schedulability(
        gain_chain, t_end=0.04, sync_interval=0.01, headroom=1.0,
    )
    padded = validate_schedulability(
        gain_chain, t_end=0.04, sync_interval=0.01, headroom=4.0,
    )
    assert padded.dominates
    for name, bound in tight.bound.items():
        assert padded.bound[name] >= bound


@pytest.mark.usefixtures("seeded_clock")
def test_report_is_json_shaped():
    report = validate_schedulability(
        two_threads_shared_state, t_end=0.04, sync_interval=0.01,
    )
    assert isinstance(report, ValidationReport)
    payload = report.as_dict()
    assert payload["dominates"] is True
    assert set(payload["observed"]) == set(payload["bound"])
    assert payload["steps"] == report.steps
    assert payload["tasks"]


def test_probe_records_each_major_step():
    model = gain_chain()
    scheduler = model.scheduler(sync_interval=0.01)
    probe = SchedulerProbe(scheduler).attach()
    model.run(until=0.05, sync_interval=0.01)
    assert len(probe.steps) == 5
    for record in probe.steps:
        assert record.thread_costs
        assert all(cost >= 0.0 for cost in record.thread_costs.values())


def test_probe_attach_is_idempotent():
    model = single_decay()
    scheduler = model.scheduler(sync_interval=0.01)
    probe = SchedulerProbe(scheduler)
    assert probe.attach() is probe.attach()
    model.run(until=0.03, sync_interval=0.01)
    assert len(probe.steps) == 3


def test_probe_chains_existing_observer():
    seen = []
    model = single_decay()
    scheduler = model.scheduler(sync_interval=0.01)
    scheduler.on_major_step = seen.append
    SchedulerProbe(scheduler).attach()
    model.run(until=0.03, sync_interval=0.01)
    assert len(seen) == 3  # the pre-existing hook still fires
