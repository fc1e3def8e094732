"""Kühl-style translation: dataflow diagram → plain UML-RT capsules.

Following Kühl/Reichmann/Spitzer/Müller-Glaser (RSP'01), the continuous
diagram is translated mechanically into the discrete language:

* every leaf block becomes **one capsule** (one class per block type);
* every dataflow edge becomes **one protocol** and **one connector**
  between dedicated data ports;
* a **driver capsule** owns the integration clock: a periodic timer whose
  tick it forwards to every block capsule (one tick port per block), in
  dataflow order;
* on its tick, a block capsule computes outputs from the last received
  input messages, advances its continuous state by explicit Euler with
  the tick period, and sends one data message per outgoing edge.

This preserves the diagram's input/output behaviour (to Euler accuracy)
but pays the paper's predicted price: the model explodes into capsules,
protocols, ports and connectors, every integration minor step costs
``blocks + edges (+ ticks)`` queued messages, and the translation *loses
information* (flow types, relay points, hierarchy, solver choice) — all
quantified by :func:`repro.baselines.metrics.information_loss` and
benchmark C1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import loop
from repro.core.network import FlatNetwork
from repro.core.streamer import Streamer
from repro.dataflow.diagram import Diagram
from repro.solvers.history import Trajectory
from repro.umlrt.capsule import Capsule
from repro.umlrt.protocol import Protocol
from repro.umlrt.runtime import RTSystem
from repro.umlrt.signal import Message, Priority
from repro.umlrt.statemachine import StateMachine

#: every translated edge gets its own single-signal protocol
def _edge_protocol(index: int) -> Protocol:
    return Protocol.define(f"Data{index}", outgoing=("data",), incoming=())


_TICK_PROTOCOL = Protocol.define("Tick", outgoing=("tick",), incoming=())


class _BlockCapsule(Capsule):
    """One capsule wrapping one translated leaf block."""

    def __init__(
        self,
        instance_name: str,
        block: Streamer,
        h: float,
    ) -> None:
        self._block = block
        self._h = h
        self._state = np.asarray(block.initial_state(), dtype=float)
        self._in_edges: List[Tuple[str, str]] = []   # (port name, dport)
        self._out_edges: List[Tuple[str, str]] = []  # (port name, dport)
        self._t = 0.0
        super().__init__(instance_name)

    def build_structure(self) -> None:
        self.create_port("tick", _TICK_PROTOCOL.conjugate())

    def add_in_edge(self, index: int, dport_name: str, protocol: Protocol):
        name = f"in{index}"
        self.create_port(name, protocol.conjugate())
        self._in_edges.append((name, dport_name))
        return self.port(name)

    def add_out_edge(self, index: int, dport_name: str, protocol: Protocol):
        name = f"out{index}"
        self.create_port(name, protocol.base())
        self._out_edges.append((name, dport_name))
        return self.port(name)

    def build_behaviour(self) -> StateMachine:
        sm = StateMachine(f"{self.instance_name}.sm")
        sm.add_state("running")
        sm.initial("running")
        sm.add_transition(
            "running", trigger=("tick", "tick"), internal=True,
            action=lambda capsule, msg: capsule._on_tick(),
        )
        for index, (port_name, dport_name) in enumerate(self._in_edges):
            sm.add_transition(
                "running", trigger=(port_name, "data"), internal=True,
                action=self._make_store(dport_name),
            )
        return sm

    @staticmethod
    def _make_store(dport_name: str):
        def store(capsule: "_BlockCapsule", message: Message) -> None:
            capsule._block.dport(dport_name)._store(float(message.data))

        return store

    def _on_tick(self) -> None:
        block = self._block
        block.compute_outputs(self._t, self._state)
        if self._state.size:
            deriv = np.asarray(
                block.derivatives(self._t, self._state), dtype=float
            )
            self._state = self._state + self._h * deriv
        block.on_sync(self._t)
        self._t += self._h
        for port_name, dport_name in self._out_edges:
            # HIGH priority so fresh data overtakes the remaining ticks of
            # this round; otherwise every edge gains a spurious one-tick
            # delay on top of the Euler error
            self.send(
                port_name, "data",
                block.dport(dport_name).read_scalar(),
                priority=Priority.HIGH,
            )


class _DriverCapsule(Capsule):
    """Owns the integration clock; forwards ticks in dataflow order."""

    def __init__(self, instance_name: str, h: float, order: int) -> None:
        self._h = h
        self._n = order
        super().__init__(instance_name)

    def build_structure(self) -> None:
        for index in range(self._n):
            self.create_port(f"tick{index}", _TICK_PROTOCOL.base())

    def build_behaviour(self) -> StateMachine:
        sm = StateMachine("driver")
        sm.add_state("ticking")
        sm.initial("ticking")
        sm.add_transition(
            "ticking", trigger=("timer", "timeout"), internal=True,
            action=lambda capsule, msg: capsule._broadcast(),
        )
        return sm

    def on_start(self) -> None:
        self.inform_every(self._h)

    def _broadcast(self) -> None:
        for index in range(self._n):
            self.send(f"tick{index}", "tick")


class KuhlTranslation:
    """The translated system: build, run and measure.

    Parameters
    ----------
    diagram:
        The source dataflow diagram (a composite streamer).
    h:
        Integration tick period (plays the role of the streamer thread's
        minor step; translation forces explicit Euler).
    probe:
        Optional ``"block.port"`` path whose value is recorded each tick.
    """

    def __init__(
        self, diagram: Diagram, h: float, probe: Optional[str] = None
    ) -> None:
        diagram.finalise()
        self.diagram = diagram
        self.h = h
        self.rts = RTSystem(f"kuhl[{diagram.name}]")
        self.network = FlatNetwork([diagram])
        self.protocols: List[Protocol] = []
        self.connectors = 0
        self.trajectory = Trajectory()
        self._probe_path = probe

        order = self.network.order
        self.capsules: Dict[int, _BlockCapsule] = {}
        driver = _DriverCapsule("driver", h, len(order))
        self.driver = self.rts.add_top(driver)
        for index, leaf in enumerate(order):
            capsule = _BlockCapsule(f"c_{leaf.name}", leaf, h)
            self.rts.add_top(capsule)
            self.capsules[id(leaf)] = capsule
            driver.connect(
                driver.port(f"tick{index}"), capsule.port("tick")
            )
            self.connectors += 1
        for index, edge in enumerate(self.network.edges):
            protocol = _edge_protocol(index)
            self.protocols.append(protocol)
            src_capsule = self.capsules[id(edge.src_leaf)]
            dst_capsule = self.capsules[id(edge.dst_leaf)]
            out_port = src_capsule.add_out_edge(
                index, edge.src_port.name, protocol
            )
            in_port = dst_capsule.add_in_edge(
                index, edge.dst_port.name, protocol
            )
            src_capsule.connect(out_port, in_port)
            self.connectors += 1
        # behaviours were built before the data ports existed; rebuild
        for capsule in self.capsules.values():
            capsule.behaviour = capsule.build_behaviour()
        self._probe_block: Optional[Streamer] = None
        self._probe_port: Optional[str] = None
        if probe is not None:
            block_path, __, port_name = probe.rpartition(".")
            self._probe_block = diagram.port_at(probe).owner
            self._probe_port = port_name

    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Simulate the translated system to logical time ``until``."""
        self.rts.start()
        t = 0.0
        # tolerance: the periodic tick timer accumulates float error
        eps = 1e-9 * self.h
        while t < until - loop.EPS:
            t = min(t + self.h, until)
            self.rts.advance_to(t + eps)
            if self._probe_block is not None:
                self.trajectory.append(
                    t,
                    self._probe_block.dport(self._probe_port).read_scalar(),
                )

    # ------------------------------------------------------------------
    def size_metrics(self) -> Dict[str, int]:
        """Counts the paper predicts will explode ("lots of objects and
        classes")."""
        # a real generator emits one capsule class per block type + driver
        block_classes = len({
            type(leaf).__name__ for leaf in self.network.order
        })
        ports = sum(
            len(c.ports) for c in list(self.capsules.values())
            + [self.driver]
        )
        return {
            "blocks": len(self.network.order),
            "capsule_instances": len(self.capsules) + 1,
            "capsule_classes": block_classes + 1,
            "protocols": len(self.protocols) + 2,  # + Tick + Timing
            "ports": ports,
            "connectors": self.connectors,
        }

    def message_metrics(self, simulated: float) -> Dict[str, float]:
        """Queued-message traffic per simulated second."""
        dispatched = self.rts.total_dispatched
        return {
            "messages_total": dispatched,
            "messages_per_second": dispatched / simulated,
            "timeouts": self.rts.timing.timeouts_delivered,
        }
