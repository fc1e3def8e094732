"""UML-RT runtime substrate.

This package is a from-scratch implementation of the UML-RT (ROOM) service
library concepts that the DATE'05 paper extends:

* **Signals and messages** (:mod:`repro.umlrt.signal`) — typed, prioritised
  asynchronous messages.
* **Protocols** (:mod:`repro.umlrt.protocol`) — named contracts listing the
  signals a port may send and receive, with base/conjugate roles.
* **Ports** (:mod:`repro.umlrt.port`) — the only communication interface of a
  capsule; end ports deliver to the owning capsule's message queue, relay
  ports forward to an inner part.
* **Hierarchical state machines** (:mod:`repro.umlrt.statemachine`) — the
  behaviour of a capsule, executed under run-to-completion semantics.
* **Capsules** (:mod:`repro.umlrt.capsule`) — active objects composed of
  ports, sub-capsule parts and a state machine.
* **Controllers** (:mod:`repro.umlrt.controller`) — logical threads, each
  running an event loop over a priority message queue.
* **Timing service** (:mod:`repro.umlrt.timing`) — one-shot and periodic
  timers delivered as timeout messages.
* **Frame service** (:mod:`repro.umlrt.frame`) — dynamic incarnation and
  destruction of optional capsule parts.
* **Runtime system** (:mod:`repro.umlrt.runtime`) — a deterministic
  discrete-event executor coordinating all controllers on a logical clock.

The paper's extension (:mod:`repro.core`) plugs *streamers* into this
substrate: capsules stay event-driven here, while continuous behaviour runs
on separate streamer threads and talks to capsules through SPorts.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.umlrt.signal": ("Message", "Priority", "Signal"),
    "repro.umlrt.protocol": ("Protocol", "ProtocolRole"),
    "repro.umlrt.port": ("Port", "PortKind"),
    "repro.umlrt.statemachine": (
        "ChoicePoint", "State", "StateMachine", "Transition",
        "add_timeout_transition",
    ),
    "repro.umlrt.capsule": ("Capsule", "CapsulePart", "PartKind"),
    "repro.umlrt.connector": ("Connector",),
    "repro.umlrt.controller": ("Controller",),
    "repro.umlrt.timing": ("TimerHandle", "TimingService"),
    "repro.umlrt.frame": ("FrameService",),
    "repro.umlrt.runtime": ("RTRuntimeError", "RTSystem"),
})

if TYPE_CHECKING:
    from repro.umlrt.signal import Message, Priority, Signal
    from repro.umlrt.protocol import Protocol, ProtocolRole
    from repro.umlrt.port import Port, PortKind
    from repro.umlrt.statemachine import (
        ChoicePoint,
        State,
        StateMachine,
        Transition,
        add_timeout_transition,
    )
    from repro.umlrt.capsule import Capsule, CapsulePart, PartKind
    from repro.umlrt.connector import Connector
    from repro.umlrt.controller import Controller
    from repro.umlrt.timing import TimerHandle, TimingService
    from repro.umlrt.frame import FrameService
    from repro.umlrt.runtime import RTRuntimeError, RTSystem
