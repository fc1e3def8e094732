"""Shared test fixtures and reference streamers/capsules.

The leaf streamers here are deliberately tiny analytic systems with known
closed-form solutions, so tests can assert against exact mathematics
rather than golden files.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.flowtype import SCALAR
from repro.core.streamer import Streamer
from repro.umlrt.capsule import Capsule
from repro.umlrt.protocol import Protocol
from repro.umlrt.statemachine import StateMachine


#: the threads alive at each ``os.fork()`` taken while another ran
_THREADED_FORKS: list = []


def _note_threaded_fork() -> None:
    if threading.active_count() > 1:
        _THREADED_FORKS.append(sorted(t.name for t in threading.enumerate()))


os.register_at_fork(before=_note_threaded_fork)


@pytest.fixture(autouse=True)
def no_threaded_fork():
    """Fail a test that forks this process while other threads run: the
    child inherits locks those threads hold and can deadlock.  Python
    3.12 only warns, and swallows the warning even when warnings are
    errors, so the check is made here."""
    yield
    if _THREADED_FORKS:
        threads = _THREADED_FORKS[0]
        _THREADED_FORKS.clear()
        pytest.fail(f"forked while threads ran: {threads}")


class ConstLeaf(Streamer):
    """Emits a constant on DPort ``y``."""

    def __init__(self, name: str, value: float = 1.0) -> None:
        super().__init__(name)
        self.add_out("y", SCALAR)
        self.params["value"] = float(value)

    def compute_outputs(self, t, state):
        self.out_scalar("y", self.params["value"])


class GainLeaf(Streamer):
    """``y = k * u`` (direct feedthrough)."""

    direct_feedthrough = True

    def __init__(self, name: str, k: float = 2.0) -> None:
        super().__init__(name)
        self.add_in("u", SCALAR)
        self.add_out("y", SCALAR)
        self.params["k"] = float(k)

    def compute_outputs(self, t, state):
        self.out_scalar("y", self.params["k"] * self.in_scalar("u"))


class IntegratorLeaf(Streamer):
    """``dy/dt = u``; output ``y``."""

    state_size = 1

    def __init__(self, name: str, y0: float = 0.0) -> None:
        super().__init__(name)
        self.add_in("u", SCALAR)
        self.add_out("y", SCALAR)
        self.params["y0"] = float(y0)

    def initial_state(self):
        return np.array([self.params["y0"]])

    def derivatives(self, t, state):
        return np.array([self.in_scalar("u")])

    def compute_outputs(self, t, state):
        self.out_scalar("y", state[0])


class DecayLeaf(Streamer):
    """``dy/dt = -lambda * y`` with ``y(0) = y0`` — exact: y0*exp(-l t)."""

    state_size = 1

    def __init__(self, name: str, lam: float = 1.0, y0: float = 1.0) -> None:
        super().__init__(name)
        self.add_out("y", SCALAR)
        self.params.update(lam=float(lam), y0=float(y0))

    def initial_state(self):
        return np.array([self.params["y0"]])

    def derivatives(self, t, state):
        return np.array([-self.params["lam"] * state[0]])

    def compute_outputs(self, t, state):
        self.out_scalar("y", state[0])


#: a simple command protocol reused across capsule tests
PING = Protocol.define("Ping", outgoing=("ping",), incoming=("pong",))


class Echo(Capsule):
    """Replies ``pong`` to every ``ping``."""

    def build_structure(self):
        self.create_port("p", PING.conjugate())

    def build_behaviour(self):
        sm = StateMachine("echo")
        sm.add_state("idle")
        sm.initial("idle")
        sm.add_transition(
            "idle", trigger=("p", "ping"), internal=True,
            action=lambda c, m: c.send("p", "pong"),
        )
        return sm


class Pinger(Capsule):
    """Sends ``ping`` on start, counts ``pong`` replies."""

    def __init__(self, instance_name: str = "pinger", pings: int = 1) -> None:
        self.pongs = 0
        self._pings = pings
        super().__init__(instance_name)

    def build_structure(self):
        self.create_port("p", PING.base())

    def build_behaviour(self):
        def on_pong(capsule, message):
            capsule.pongs += 1

        sm = StateMachine("pinger")
        sm.add_state("idle")
        sm.initial("idle")
        sm.add_transition(
            "idle", trigger=("p", "pong"), internal=True, action=on_pong
        )
        return sm

    def on_start(self):
        for __ in range(self._pings):
            self.send("p", "ping")


@pytest.fixture
def rts():
    from repro.umlrt.runtime import RTSystem

    return RTSystem("test")


@pytest.fixture
def model():
    from repro.core.model import HybridModel

    return HybridModel("test")
