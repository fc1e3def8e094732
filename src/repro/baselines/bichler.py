"""Bichler-style baseline: directed equations attached to capsule states.

Following Bichler/Radermacher/Schürr (Real-Time Systems 26), the hybrid
part is *not* moved out of the discrete language: the dataflow equations
are associated with a state of an ordinary capsule, and a periodic timer
drives their evaluation inside run-to-completion steps.

Concretely, one :class:`EquationCapsule` owns the whole diagram.  Its
state machine has a single ``integrating`` state whose directed equations
(the flattened network's RHS) are evaluated on every ``timeout`` message:
one explicit-Euler minor step per RTC step.

The paper's criticism — "because UML is a foundational discrete language,
this method doesn't work efficiently" — shows up measurably:

* every minor integration step costs a full timer-expiry + queue insert +
  priority dispatch + RTC cycle (benchmark C2 counts dispatches and wall
  time per simulated second against the streamer architecture, which pays
  one function call per minor step);
* the capsule cannot use multi-stage or adaptive solvers without breaking
  RTC atomicity, so it is stuck at Euler accuracy;
* timer jitter under queue load directly corrupts the integration grid.

The implementation *shares* the numeric network with the streamer path
(same equations, same flattening), so any measured difference is pure
architecture overhead, not model differences.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core import loop
from repro.core.network import FlatNetwork
from repro.dataflow.diagram import Diagram
from repro.solvers.history import Trajectory
from repro.umlrt.capsule import Capsule
from repro.umlrt.runtime import RTSystem
from repro.umlrt.statemachine import StateMachine


class EquationCapsule(Capsule):
    """A capsule whose single state carries the diagram's equations."""

    def __init__(
        self,
        instance_name: str,
        network: FlatNetwork,
        h: float,
    ) -> None:
        self._network = network
        self._h = h
        self._state_vec = network.initial_state()
        self._t = 0.0
        self.equation_evaluations = 0
        super().__init__(instance_name)

    def build_behaviour(self) -> StateMachine:
        sm = StateMachine("equations")
        sm.add_state("integrating")
        sm.initial("integrating")
        # the "directed equations associated with the state": evaluated on
        # each timeout, inside the RTC step
        sm.add_transition(
            "integrating", trigger=("timer", "timeout"), internal=True,
            action=lambda capsule, msg: capsule._euler_step(),
        )
        return sm

    def on_start(self) -> None:
        self.inform_every(self._h)

    def _euler_step(self) -> None:
        network = self._network
        deriv = network.rhs(self._t, self._state_vec)
        self._state_vec = self._state_vec + self._h * deriv
        self._t += self._h
        network.evaluate(self._t, self._state_vec)
        for leaf in network.order:
            leaf.on_sync(self._t)
        self.equation_evaluations += 1

    @property
    def t(self) -> float:
        return self._t

    @property
    def state_vector(self) -> np.ndarray:
        return self._state_vec.copy()


class BichlerModel:
    """Build, run and measure the equations-in-states system."""

    def __init__(
        self, diagram: Diagram, h: float, probe: Optional[str] = None
    ) -> None:
        diagram.finalise()
        self.diagram = diagram
        self.h = h
        self.network = FlatNetwork([diagram])
        self.rts = RTSystem(f"bichler[{diagram.name}]")
        self.capsule = EquationCapsule("equations", self.network, h)
        self.rts.add_top(self.capsule)
        self.trajectory = Trajectory()
        self._probe_port = None
        self._probe_block = None
        if probe is not None:
            self._probe_block = diagram.port_at(probe).owner
            self._probe_port = probe.rpartition(".")[2]

    def run(self, until: float, record_every: int = 1) -> None:
        """Simulate to logical time ``until``; record the probe every
        ``record_every`` minor steps."""
        self.rts.start()
        steps = 0
        t = 0.0
        # the periodic timer accumulates float error (k additions of h);
        # a tiny forward tolerance keeps the k-th tick inside step k
        eps = 1e-9 * self.h
        while t < until - loop.EPS:
            t = min(t + self.h, until)
            self.rts.advance_to(t + eps)
            steps += 1
            if self._probe_block is not None and steps % record_every == 0:
                self.trajectory.append(
                    self.capsule.t,
                    self._probe_block.dport(self._probe_port).read_scalar(),
                )

    def metrics(self, simulated: float) -> Dict[str, float]:
        return {
            "messages_total": self.rts.total_dispatched,
            "messages_per_second": self.rts.total_dispatched / simulated,
            "equation_evaluations": self.capsule.equation_evaluations,
            "timeouts": self.rts.timing.timeouts_delivered,
        }
