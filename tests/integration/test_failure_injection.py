"""Failure injection: the system must fail loudly and diagnosably."""

import numpy as np
import pytest

from tests.conftest import ConstLeaf, Echo, GainLeaf, IntegratorLeaf, PING

from repro.core.channel import ChannelError, ChannelPolicy
from repro.core.flowtype import SCALAR
from repro.core.model import HybridModel
from repro.core.streamer import Streamer
from repro.solvers.base import SolverError
from repro.umlrt.capsule import Capsule
from repro.umlrt.protocol import Protocol
from repro.umlrt.statemachine import StateMachine

FLOOD = Protocol.define("Flood", outgoing=("burst",), incoming=())


class TestNumericalFailures:
    def test_stiff_plant_on_explicit_solver_raises(self):
        class Stiff(Streamer):
            state_size = 1

            def __init__(self, name):
                super().__init__(name)
                self.add_out("y", SCALAR)

            def initial_state(self):
                return np.array([1.0])

            def derivatives(self, t, state):
                return np.array([-1e6 * state[0]])

            def compute_outputs(self, t, state):
                self.out_scalar("y", state[0])

        model = HybridModel("stiff")
        model.default_thread.h = 0.01  # way outside Euler stability
        model.default_thread.binding.rebind("euler")
        model.add_streamer(Stiff("plant"))
        with np.errstate(over="ignore"), pytest.raises(
            SolverError, match="non-finite"
        ):
            model.run(until=1.0, sync_interval=0.1)

    def test_nan_producing_streamer_detected(self):
        class Broken(Streamer):
            state_size = 1

            def __init__(self, name):
                super().__init__(name)
                self.add_out("y", SCALAR)

            def derivatives(self, t, state):
                return np.array([float("nan")])

            def compute_outputs(self, t, state):
                self.out_scalar("y", state[0])

        model = HybridModel("nan")
        model.add_streamer(Broken("bad"))
        with pytest.raises(SolverError, match="non-finite"):
            model.run(until=0.1, sync_interval=0.05)

    def test_wrong_derivative_shape_names_the_leaf(self):
        class WrongShape(IntegratorLeaf):
            def derivatives(self, t, state):
                return np.zeros(3)

        model = HybridModel("shape")
        model.add_streamer(WrongShape("culprit"))
        from repro.core.network import NetworkError

        with pytest.raises(NetworkError, match="culprit"):
            model.run(until=0.1, sync_interval=0.05)


class TestChannelOverflow:
    class Flooder(Capsule):
        """Sends a burst of messages to its streamer every timeout."""

        def build_structure(self):
            self.create_port("out", FLOOD.base())

        def build_behaviour(self):
            def flood(capsule, message):
                for __ in range(10):
                    capsule.send("out", "burst")

            sm = StateMachine("flooder")
            sm.add_state("s")
            sm.initial("s")
            sm.add_transition("s", trigger=("timer", "timeout"),
                              internal=True, action=flood)
            return sm

        def on_start(self):
            self.inform_every(0.01)

    class Sink(ConstLeaf):
        def __init__(self, name):
            super().__init__(name, 0.0)
            self.add_sport("in_", FLOOD.conjugate())
            self.received = 0

        def handle_signal(self, sport_name, message):
            self.received += 1

    def build(self, policy):
        model = HybridModel("flood")
        flooder = model.add_capsule(self.Flooder("flooder"))
        sink = model.add_streamer(self.Sink("sink"))
        model.connect_sport(
            flooder.port("out"), sink.sport("in_"),
            capacity=4, policy=policy,
        )
        return model, sink

    def test_block_policy_raises_on_overflow(self):
        model, __ = self.build(ChannelPolicy.BLOCK)
        with pytest.raises(ChannelError, match="full"):
            model.run(until=0.5, sync_interval=0.1)

    def test_overwrite_policy_drops_quietly_but_counts(self):
        model, sink = self.build(ChannelPolicy.OVERWRITE)
        model.run(until=0.5, sync_interval=0.1)
        bridge = model.bridges[0]
        assert bridge.to_streamer.dropped > 0
        assert sink.received > 0  # newest messages still arrive

    def test_latest_policy_keeps_only_newest(self):
        model, sink = self.build(ChannelPolicy.LATEST)
        model.run(until=0.5, sync_interval=0.1)
        # one message per sync point at most
        assert sink.received <= 6


class TestStructuralFailures:
    def test_algebraic_loop_reported_before_run(self):
        model = HybridModel("loop")
        a = model.add_streamer(GainLeaf("a"))
        b = model.add_streamer(GainLeaf("b"))
        model.add_flow(a.dport("y"), b.dport("u"))
        model.add_flow(b.dport("y"), a.dport("u"))
        from repro.check import ChecksFailedError

        with pytest.raises(ChecksFailedError) as excinfo:
            model.run(until=1.0)
        assert "STR001" in str(excinfo.value)

    def test_destroyed_capsule_messages_counted_not_crashed(self):
        from repro.umlrt.capsule import PartKind
        from repro.umlrt.runtime import RTSystem

        class Host(Capsule):
            def build_structure(self):
                self.create_part("opt", Echo, kind=PartKind.OPTIONAL)

        rts = RTSystem("t")
        host = rts.add_top(Host("host"))
        from tests.conftest import Pinger

        pinger = rts.add_top(Pinger("pinger", pings=0))
        rts.start()
        echo = rts.frame.incarnate(host, "opt")
        pinger.connect(pinger.port("p"), echo.port("p"))
        pinger.send("p", "ping")
        rts.frame.destroy(host, "opt")  # message still queued
        rts.run()
        # the queued ping was dropped as stale, counted, no crash
        assert rts.default_controller.stale_dropped == 1
        assert pinger.pongs == 0

    def test_sending_on_disconnected_port_raises(self):
        from repro.umlrt.port import PortError
        from repro.umlrt.runtime import RTSystem
        from tests.conftest import Pinger

        rts = RTSystem("t")
        pinger = rts.add_top(Pinger("pinger", pings=0))
        rts.start()
        with pytest.raises(PortError, match="not wired"):
            pinger.send("p", "ping")


class TestRealThreadFailurePropagation:
    def test_solver_error_crosses_thread_boundary(self):
        class Exploder(Streamer):
            state_size = 1

            def __init__(self, name):
                super().__init__(name)
                self.add_out("y", SCALAR)

            def derivatives(self, t, state):
                return np.array([float("inf")])

            def compute_outputs(self, t, state):
                self.out_scalar("y", state[0])

        model = HybridModel("explode")
        model.add_streamer(Exploder("boom"))
        with pytest.raises(SolverError):
            model.run(until=0.1, sync_interval=0.05, real_threads=True)
