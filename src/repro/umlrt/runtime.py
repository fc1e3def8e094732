"""The UML-RT runtime system: a deterministic discrete-event executor.

:class:`RTSystem` owns controllers (logical threads), a logical clock, the
timing service and the frame service.  Execution model:

1. While any controller has pending messages, dispatch the globally most
   urgent one (priority, then timestamp, then send order).  Each dispatch
   is one run-to-completion step of the target capsule.
2. When every controller is idle, advance the clock to the earliest timer
   expiry, deliver the due ``timeout`` messages, and continue.
3. Stop at quiescence (no messages, no timers), at ``until`` time, or at
   ``max_steps`` dispatches.

Serialising controllers by global message order preserves the observable
semantics of concurrent controllers (each capsule still sees a totally
ordered message stream) while making runs bit-reproducible, which the test
suite and benchmarks rely on.  The hybrid layer (:mod:`repro.core.hybrid`)
drives this runtime in bounded slices, interleaving continuous integration
between discrete activity.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.umlrt.capsule import Capsule
from repro.umlrt.controller import Controller
from repro.umlrt.frame import FrameService
from repro.umlrt.port import Port, PortError
from repro.umlrt.signal import Message, Priority
from repro.umlrt.timing import TimingService


class RTRuntimeError(Exception):
    """Raised on illegal runtime operations (name avoids the builtin)."""


class RTSystem:
    """A complete executable UML-RT system."""

    def __init__(self, name: str = "system") -> None:
        self.name = name
        self.now: float = 0.0
        #: synthetic CPU time added to the clock per dispatched message.
        #: 0 models an infinitely fast processor (pure logical time);
        #: > 0 makes queueing delay — and hence UML-RT timer jitter, the
        #: paper's "unpredictable timing" — observable (bench C3).
        self.dispatch_cost: float = 0.0
        self.controllers: List[Controller] = []
        self.default_controller = self.create_controller("main")
        self.timing = TimingService(self)
        self.frame = FrameService(self)
        self.tops: List[Capsule] = []
        self._capsules: Dict[int, Capsule] = {}
        self.started = False
        self.total_dispatched = 0
        self.messages_to_dead = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def create_controller(self, name: str) -> Controller:
        if any(c.name == name for c in self.controllers):
            raise RTRuntimeError(f"duplicate controller name {name!r}")
        controller = Controller(name)
        self.controllers.append(controller)
        return controller

    def add_top(
        self, capsule: Capsule, controller: Optional[Controller] = None
    ) -> Capsule:
        """Register a top-level capsule (builds its fixed structure)."""
        if self.started:
            raise RTRuntimeError("cannot add top capsules after start()")
        self.tops.append(capsule)
        capsule._build()
        self.adopt(capsule, controller or self.default_controller)
        return capsule

    def adopt(
        self, capsule: Capsule, controller: Optional[Controller]
    ) -> None:
        """Attach a capsule tree to this runtime and a controller."""
        target = controller or self.default_controller
        for instance in [capsule] + capsule.descendants():
            instance.runtime = self
            if instance.controller is None:
                target_ctrl = target if instance is capsule else (
                    instance.parent.controller or target
                    if instance.parent is not None
                    else target
                )
                target_ctrl.assign(instance)
            self._capsules[id(instance)] = instance

    def abandon(self, capsule: Capsule) -> None:
        """Detach a (destroyed) capsule from the runtime."""
        self._capsules.pop(id(capsule), None)
        if capsule.controller is not None:
            try:
                capsule.controller.capsules.remove(capsule)
            except ValueError:
                pass
        capsule.runtime = None
        capsule.controller = None

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------
    def deliver(self, endpoint: Port, message: Message) -> None:
        """Queue ``message`` on the endpoint capsule's controller."""
        owner = endpoint.owner
        if owner is None or id(owner) not in self._capsules:
            self.messages_to_dead += 1
            return
        if owner.controller is None:
            raise RTRuntimeError(
                f"capsule {owner.instance_name} has no controller"
            )
        message.port = endpoint
        owner.controller.enqueue(owner, message)

    def inject(
        self,
        port: Port,
        signal: str,
        data: Any = None,
        priority: Priority = Priority.GENERAL,
    ) -> None:
        """Deliver a message straight to an end port (test/environment hook).

        Unlike :meth:`Port.send` this bypasses role send-checks on the
        sender side but still validates that the receiving role accepts the
        signal.
        """
        if signal not in port.role.receives:
            raise PortError(
                f"port {port.qualified_name} (role {port.role.name}) does "
                f"not receive {signal!r}"
            )
        self.deliver(
            port,
            Message(
                signal=signal,
                data=data,
                priority=priority,
                timestamp=self.now,
                port=port,
            ),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every top capsule (enters initial states, runs on_start)."""
        if self.started:
            raise RTRuntimeError("system already started")
        self.started = True
        for top in self.tops:
            top._start()

    def _busiest_controller(self) -> Optional[Controller]:
        best: Optional[Controller] = None
        best_key: Optional[tuple] = None
        for controller in self.controllers:
            key = controller.peek_key()
            if key is None:
                continue
            if best_key is None or key < best_key:
                best, best_key = controller, key
        return best

    def step(self) -> bool:
        """Dispatch one message system-wide.  True if one was dispatched."""
        controller = self._busiest_controller()
        if controller is None:
            return False
        controller.dispatch_one()
        self.total_dispatched += 1
        if self.dispatch_cost:
            self.now += self.dispatch_cost
        return True

    def drain(self, max_steps: Optional[int] = None) -> int:
        """Dispatch messages until every controller is idle."""
        steps = 0
        while self.step():
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        return steps

    def run(
        self,
        until: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> int:
        """Run to quiescence or to logical time ``until``.

        Returns the number of messages dispatched.  Timer expiries advance
        the logical clock; the clock never moves past ``until``.
        """
        if not self.started:
            self.start()
        dispatched = 0
        while True:
            dispatched += self.drain(
                None if max_steps is None else max_steps - dispatched
            )
            if max_steps is not None and dispatched >= max_steps:
                break
            expiry = self.timing.next_expiry()
            if expiry is None:
                break
            if until is not None and expiry > until:
                self.now = until
                break
            self.now = max(self.now, expiry)
            self.timing.fire_due(self.now)
        if until is not None and max_steps is None:
            self.now = max(self.now, until)
        return dispatched

    def advance_to(self, time: float) -> int:
        """Advance the clock to ``time``, firing due timers and draining.

        Used by the hybrid scheduler to run the discrete world in bounded
        slices.  Returns messages dispatched.  With a non-zero
        ``dispatch_cost`` the clock may already have overrun ``time``
        (processing overload); the call then just drains and keeps the
        later clock value.
        """
        target = max(time, self.now)
        dispatched = self.drain()
        while True:
            expiry = self.timing.next_expiry()
            if expiry is None or expiry > target:
                break
            self.now = max(self.now, expiry)
            self.timing.fire_due(self.now)
            dispatched += self.drain()
            target = max(target, self.now)
        self.now = max(self.now, target)
        return dispatched

    def quiescent(self) -> bool:
        """True if no messages are pending and no timers are scheduled."""
        return (
            all(c.idle for c in self.controllers)
            and self.timing.next_expiry() is None
        )

    def capsule_count(self) -> int:
        return len(self._capsules)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RTSystem({self.name!r}, t={self.now}, "
            f"capsules={self.capsule_count()}, "
            f"controllers={len(self.controllers)})"
        )
