"""HybridModel: the top-level container and main public entry point.

A hybrid model owns the two worlds and their meeting points:

* a UML-RT runtime (:class:`repro.umlrt.runtime.RTSystem`) with the
  capsules and their controllers (event-driven world);
* top-level streamers partitioned onto streamer threads (continuous
  world) plus model-level flows, relays and capsule relay-DPorts;
* SPort bridges connecting capsule ports to streamer SPorts over bounded
  channels;
* the continuous :class:`~repro.core.timeservice.ContinuousTime` clock;
* probes recording trajectories during simulation.

Typical usage (see also :class:`repro.core.builder.ModelBuilder` and the
``examples/`` directory)::

    model = HybridModel("cruise")
    model.add_capsule(supervisor)
    plant = model.add_streamer(CarDynamics("car"))
    model.connect_sport(supervisor.port("cmd"), plant.sport("ctrl"))
    model.add_probe("speed", plant.dport("v"))
    model.run(until=30.0, sync_interval=0.01)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.channel import Channel, ChannelPolicy
from repro.core.dport import Direction, DPort
from repro.core.flow import Flow, Relay
from repro.core.flowtype import FlowType
from repro.core.hybrid import HybridScheduler
from repro.core.sport import SPort
from repro.core.streamer import Streamer
from repro.core.thread import StreamerThread
from repro.core.timeservice import ContinuousTime
from repro.solvers.history import Trajectory
from repro.umlrt.capsule import Capsule
from repro.umlrt.controller import Controller
from repro.umlrt.port import Port
from repro.umlrt.runtime import RTSystem
from repro.umlrt.signal import Message
from repro.umlrt.statemachine import StateMachine


class ModelError(Exception):
    """Raised on ill-formed model construction."""


class SPortBridge(Capsule):
    """Hidden boundary capsule pairing one SPort with one capsule port.

    The bridge owns an end port with the *same* role as the SPort — it is
    the streamer's representative inside the discrete world — so it wires
    to the user capsule's (conjugated) port with a plain connector.
    Every message it receives goes onto :attr:`to_streamer`; messages the
    streamer emits are sent out of the bridge's port by the hybrid
    scheduler calling :meth:`flush_outbound`.
    """

    def __init__(
        self,
        instance_name: str,
        sport: SPort,
        channel_capacity: int = 64,
        channel_policy: ChannelPolicy = ChannelPolicy.OVERWRITE,
    ) -> None:
        self._sport = sport  # needed by build_structure, set before super
        self._channel_capacity = channel_capacity
        self._channel_policy = channel_policy
        super().__init__(instance_name)
        self.to_streamer = Channel(
            f"{instance_name}.to_streamer",
            capacity=channel_capacity,
            policy=channel_policy,
        )
        sport.bridge = self

    def build_structure(self) -> None:
        self.create_port("boundary", self._sport.role)

    def build_behaviour(self) -> Optional[StateMachine]:
        return None  # message handling happens in on_message

    def on_message(self, message: Message) -> None:
        if message.is_timeout():
            return
        self.to_streamer.push(message)

    def flush_outbound(self) -> int:
        """Send the SPort's queued outbound messages out of the boundary
        port.  Called by the hybrid scheduler inside a discrete slice."""
        count = 0
        for message in self._sport.outbound:
            self.port("boundary").send(
                message.signal, message.data, message.priority
            )
            count += 1
        self._sport.outbound.clear()
        return count


class Probe:
    """A named scalar recorder attached to a DPort or a callable."""

    def __init__(self, name: str, source: Union[DPort, Callable[[], float]]):
        self.name = name
        #: the probed DPort or callable; the static checker reads this
        #: to treat probed pads as live (STR002/STR003)
        self.source = source
        if isinstance(source, DPort):
            self._read = source.read_scalar
        elif callable(source):
            self._read = source
        else:
            raise ModelError(
                f"probe {name!r}: source must be a DPort or callable"
            )
        self.trajectory = Trajectory(labels=[name])

    def record(self, t: float) -> None:
        self.trajectory.append(t, float(self._read()))


class HybridModel:
    """A complete hybrid real-time control system model."""

    def __init__(self, name: str = "model", t0: float = 0.0) -> None:
        self.name = name
        self.rts = RTSystem(f"{name}.rts")
        self.time = ContinuousTime(t0)
        self.streamers: List[Streamer] = []
        self.threads: List[StreamerThread] = []
        self.default_thread = self.create_thread("streamers")
        self.flows: List[Flow] = []
        self.relays: Dict[str, Relay] = {}
        self.bridges: List[SPortBridge] = []
        self.capsule_dports: Dict[Tuple[str, str], DPort] = {}
        self.probes: Dict[str, Probe] = {}
        self._scheduler: Optional[HybridScheduler] = None

    # ------------------------------------------------------------------
    # discrete world
    # ------------------------------------------------------------------
    def create_controller(self, name: str) -> Controller:
        return self.rts.create_controller(name)

    def add_capsule(
        self, capsule: Capsule, controller: Optional[Controller] = None
    ) -> Capsule:
        """Register a top-level capsule (its fixed structure is built now)."""
        return self.rts.add_top(capsule, controller)

    # ------------------------------------------------------------------
    # continuous world
    # ------------------------------------------------------------------
    def create_thread(
        self, name: str, solver: Any = "rk4", h: float = 1e-3, **kwargs: Any
    ) -> StreamerThread:
        if any(thread.name == name for thread in self.threads):
            raise ModelError(f"duplicate streamer thread {name!r}")
        thread = StreamerThread(name, solver, h, **kwargs)
        self.threads.append(thread)
        return thread

    def add_streamer(
        self, streamer: Streamer, thread: Optional[StreamerThread] = None
    ) -> Streamer:
        """Register a top-level streamer on a thread (default thread if
        omitted)."""
        if streamer.parent is not None:
            raise ModelError(
                f"{streamer.path()} is nested; add only top-level streamers"
            )
        if any(existing.name == streamer.name for existing in self.streamers):
            raise ModelError(f"duplicate top streamer {streamer.name!r}")
        self.streamers.append(streamer)
        (thread or self.default_thread).assign(streamer)
        return streamer

    def add_flow(self, source: DPort, target: DPort) -> Flow:
        """A model-level flow (between top streamers, relays or capsule
        relay DPorts)."""
        flow = Flow(source, target)
        self.flows.append(flow)
        return flow

    def add_relay(self, name: str, flow_type: FlowType) -> Relay:
        if name in self.relays:
            raise ModelError(f"duplicate relay {name!r}")
        relay = Relay(name, flow_type)
        self.relays[name] = relay
        return relay

    def add_capsule_dport(
        self,
        capsule: Capsule,
        name: str,
        direction: Direction,
        flow_type: FlowType,
    ) -> DPort:
        """A relay-only DPort on a capsule (paper §2: "in capsules, DPorts
        are only used as relay ports; no data will be processed")."""
        key = (capsule.instance_name, name)
        if key in self.capsule_dports:
            raise ModelError(
                f"duplicate DPort {name!r} on capsule "
                f"{capsule.instance_name}"
            )
        port = DPort(name, direction, flow_type, owner=capsule,
                     relay_only=True)
        self.capsule_dports[key] = port
        return port

    # ------------------------------------------------------------------
    # the capsule <-> streamer boundary
    # ------------------------------------------------------------------
    def connect_sport(
        self,
        capsule_port: Port,
        sport: SPort,
        capacity: int = 64,
        policy: ChannelPolicy = ChannelPolicy.OVERWRITE,
        controller: Optional[Controller] = None,
    ) -> SPortBridge:
        """Bridge a capsule port and a streamer SPort over a channel (W7)."""
        if sport.connected:
            raise ModelError(
                f"SPort {sport.qualified_name} is already connected"
            )
        owner_capsule = capsule_port.owner
        if owner_capsule is None or owner_capsule.runtime is not self.rts:
            raise ModelError(
                f"capsule port {capsule_port.qualified_name} does not "
                "belong to this model; add the capsule first"
            )
        bridge = SPortBridge(
            f"__bridge_{len(self.bridges)}_{sport.qualified_name}",
            sport,
            channel_capacity=capacity,
            channel_policy=policy,
        )
        self.rts.add_top(
            bridge, controller or owner_capsule.controller
        )
        owner_capsule.connect(capsule_port, bridge.port("boundary"))
        self.bridges.append(bridge)
        return bridge

    def all_sports(self) -> Iterator[Tuple[Streamer, SPort]]:
        """All (streamer, SPort) pairs in the model, depth-first."""

        def walk(streamer: Streamer) -> Iterator[Tuple[Streamer, SPort]]:
            if not isinstance(streamer, Streamer):
                return  # tolerate W6-violating trees; validation reports
            for sport in streamer.sports.values():
                yield streamer, sport
            for sub in streamer.subs.values():
                yield from walk(sub)

        for top in self.streamers:
            yield from walk(top)

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def add_probe(
        self, name: str, source: Union[DPort, Callable[[], float]]
    ) -> Probe:
        if name in self.probes:
            raise ModelError(f"duplicate probe {name!r}")
        probe = Probe(name, source)
        self.probes[name] = probe
        return probe

    def record(self, t: float) -> None:
        for probe in self.probes.values():
            probe.record(t)

    def probe(self, name: str) -> Trajectory:
        try:
            return self.probes[name].trajectory
        except KeyError:
            raise ModelError(f"unknown probe {name!r}") from None

    # ------------------------------------------------------------------
    # validation and execution
    # ------------------------------------------------------------------
    def validate(self, strict: bool = True):
        """Run the W-rules and STR001; returns their diagnostics.

        Strict mode raises :class:`~repro.check.ChecksFailedError` when
        any of them is an error.
        """
        from repro.check import CheckConfig, ChecksFailedError, run_checks

        result = run_checks(self, CheckConfig(select={"W", "STR001"}))
        if strict and result.errors:
            raise ChecksFailedError(self.name, result.errors)
        return result.diagnostics

    def scheduler(
        self,
        sync_interval: float = 0.01,
        event_restart: bool = True,
        real_threads: bool = False,
        dense_events: bool = True,
        opt_level: int = 0,
        opt_config=None,
        backend: Optional[str] = None,
    ) -> HybridScheduler:
        """Create (or return the existing) hybrid scheduler.

        ``opt_level`` / ``opt_config`` select the plan-optimizer
        pipeline (:mod:`repro.core.opt`) the scheduler compiles under;
        probed pads are protected automatically.  ``backend`` requests
        an execution backend (:mod:`repro.core.backend`) for the
        continuous phase; ineligible models fall back to the plan
        interpreter (see ``scheduler.backend_info``).
        """
        if self._scheduler is None:
            self._scheduler = HybridScheduler(
                self,
                sync_interval=sync_interval,
                event_restart=event_restart,
                real_threads=real_threads,
                dense_events=dense_events,
                opt_level=opt_level,
                opt_config=opt_config,
                backend=backend,
            )
        return self._scheduler

    def run(
        self,
        until: float,
        sync_interval: float = 0.01,
        event_restart: bool = True,
        real_threads: bool = False,
        dense_events: bool = True,
        validate: bool = True,
        opt_level: int = 0,
        opt_config=None,
        backend: Optional[str] = None,
    ) -> HybridScheduler:
        """Validate, build and simulate to continuous time ``until``."""
        if validate and self._scheduler is None:
            self.validate(strict=True)
        scheduler = self.scheduler(
            sync_interval=sync_interval,
            event_restart=event_restart,
            real_threads=real_threads,
            dense_events=dense_events,
            opt_level=opt_level,
            opt_config=opt_config,
            backend=backend,
        )
        scheduler.run(until)
        return scheduler

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "capsules": self.rts.capsule_count(),
            "controllers": len(self.rts.controllers),
            "streamer_threads": len(self.threads),
            "top_streamers": len(self.streamers),
            "bridges": len(self.bridges),
            "probes": len(self.probes),
        }
        if self._scheduler is not None:
            out.update(self._scheduler.stats())
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HybridModel({self.name!r}, capsules="
            f"{self.rts.capsule_count()}, streamers={len(self.streamers)})"
        )
