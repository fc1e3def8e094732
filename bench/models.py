"""Models the benchmark defines itself (the rest come from
:mod:`repro.cluster.models`).

* :func:`pid_loop` is the 204-block loop of experiments S4/S9/S13: a PID
  against a first-order plant with 200 unity gains padding the forward
  path, so plan construction and code generation have real size.  It
  must stay identical to ``pid_plant_diagram(200)`` in
  ``benchmarks/conftest.py``; it is a copy because that module imports
  pytest, which the benchmark's processes do not need.
* :func:`thermostat` is the quickstart's shape: a capsule running a
  two-state machine supervising a streamer through SPorts, with
  zero-crossing events driving signals both ways.
"""

from __future__ import annotations

import numpy as np

from repro import Capsule, HybridModel, Protocol, StateMachine, Streamer
from repro.core.flowtype import SCALAR
from repro.dataflow import Diagram, FirstOrderLag, Gain, PID, Step, Sum

PAD_BLOCKS = 200


def pid_loop() -> Diagram:
    d = Diagram(f"loop{PAD_BLOCKS}")
    d.add(Step("ref", amplitude=1.0))
    d.add(Sum("err", signs="+-"))
    d.add(PID("pid", kp=3.0, ki=1.5, tf=0.5))
    d.add(FirstOrderLag("plant", tau=0.4))
    d.connect("ref.out", "err.in1")
    d.connect("err.out", "pid.in")
    previous = "pid.out"
    for index in range(PAD_BLOCKS):
        d.add(Gain(f"pad{index}", k=1.0))
        d.connect(previous, f"pad{index}.in")
        previous = f"pad{index}.out"
    d.connect(previous, "plant.in")
    d.connect("plant.out", "err.in2")
    return d


CTRL = Protocol.define(
    "BenchHeaterCtrl", outgoing=("on", "off"), incoming=("tooHot", "tooCold"),
)


class Room(Streamer):
    """dT/dt = -k (T - T_amb) + P * heater, with hot/cold guards."""

    state_size = 1
    zero_crossing_names = ("hot", "cold")

    def __init__(self, power: float) -> None:
        super().__init__("room")
        self.add_out("temp", SCALAR)
        self.add_sport("ctrl", CTRL.conjugate())
        self.params.update(
            k=0.1, T_amb=10.0, P=power, heater=0.0, hi=21.0, lo=19.0,
        )

    def initial_state(self) -> np.ndarray:
        return np.array([20.0])

    def derivatives(self, t, state):
        p = self.params
        return np.array([
            -p["k"] * (state[0] - p["T_amb"]) + p["P"] * p["heater"]
        ])

    def compute_outputs(self, t, state):
        self.out_scalar("temp", state[0])

    def zero_crossings(self, t, state):
        return (state[0] - self.params["hi"], self.params["lo"] - state[0])

    def on_zero_crossing(self, name, t, direction):
        if direction > 0:
            self.sport("ctrl").send("tooHot" if name == "hot" else "tooCold")

    def handle_signal(self, sport_name, message):
        self.params["heater"] = 1.0 if message.signal == "on" else 0.0


class Thermostat(Capsule):
    def build_structure(self):
        self.create_port("env", CTRL.base())

    def build_behaviour(self):
        sm = StateMachine("thermostat")
        sm.add_state("heating", entry=lambda c, m: c.send("env", "on"))
        sm.add_state("idle", entry=lambda c, m: c.send("env", "off"))
        sm.initial("heating")
        sm.add_transition("heating", "idle", trigger=("env", "tooHot"))
        sm.add_transition("idle", "heating", trigger=("env", "tooCold"))
        return sm


def thermostat(power: float = 2.0) -> HybridModel:
    model = HybridModel("bench_thermostat")
    stat = model.add_capsule(Thermostat("stat"))
    room = model.add_streamer(Room(power))
    model.connect_sport(stat.port("env"), room.sport("ctrl"))
    model.add_probe("T", room.dport("temp"))
    return model
