"""repro: unified modeling of complex real-time control systems.

A from-scratch reproduction of He Hai, Zhong Yi-fang, Cai Chi-lan,
*Unified Modeling of Complex Real-Time Control Systems* (DATE 2005): a
UML-RT runtime extended with **streamers** so hybrid discrete/continuous
control systems can be modelled, validated, simulated and code-generated
on one platform.

Package map
-----------
- :mod:`repro.umlrt` — UML-RT substrate: capsules, ports, protocols,
  hierarchical state machines, controllers, timing and frame services.
- :mod:`repro.core` — the paper's extension: streamers, DPorts/SPorts,
  flows/relays, flow types, solver bindings, the continuous Time service,
  channels, streamer threads and the hybrid scheduler.
- :mod:`repro.solvers` — ODE solver strategies plus zero-crossing events.
- :mod:`repro.dataflow` — a Simulink-like continuous/discrete block
  library built on streamers.
- :mod:`repro.metamodel` — a small UML metamodel, the UML-RT profile, the
  paper's extension profile (Table 1) and diagram renderers (Figures 1-3).
- :mod:`repro.baselines` — the two prior approaches the paper argues
  against: Kühl-style dataflow→capsule translation and Bichler-style
  equations-in-states.
- :mod:`repro.codegen` — Python and C code generation from hybrid models.
- :mod:`repro.analysis` — trace metrics and schedulability analysis.
- :mod:`repro.service` — the concurrent job service above the simulator:
  a content-addressed plan cache (compile once, serve many), a bounded
  worker-pool job engine with deadlines/cancellation/retry/shedding, and
  streaming telemetry with service-wide metrics.
- :mod:`repro.check` — the static diagnostics engine: a pluggable rule
  registry linting models, plans and state machines without executing
  them (``python -m repro.check``, :func:`run_checks`), with
  machine-applicable fix-its and a service-layer lint gate.
- :mod:`repro.scenarios` — seeded scenario synthesis and
  coverage-steered differential campaigns (``python -m repro.scenarios``).
- :mod:`repro.cluster` — the distributed service: a multi-process
  worker pool with work stealing, a shared store of job checkpoint
  spools enabling bitwise live job migration, and a threaded HTTP
  front-end and socket client (``python -m repro.cluster``).

Every name below is exported on use: ``import repro`` imports no
subpackage, and ``from repro import HybridModel`` imports only what
:mod:`repro.core.model` needs (see :mod:`repro._lazy`).

Quick start
-----------
>>> from repro import HybridModel, Streamer
>>> # see examples/quickstart.py for a complete runnable model
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, _LAZY = lazy_exports(__name__, {
    "repro.core.backend.base": (
        "BackendProgram", "CompileRequest", "ExecutionBackend",
        "available_backends", "compile_program",
    ),
    "repro.core.batch": (
        "BatchResult", "BatchSimulator", "simulate_sequential",
    ),
    "repro.core.builder": ("ModelBuilder",),
    "repro.core.channel": ("Channel", "ChannelPolicy"),
    "repro.core.dport": ("DPort", "Direction"),
    "repro.core.flow": ("Flow", "Relay"),
    "repro.core.flowtype": ("DataKind", "FlowType"),
    "repro.core.hybrid": ("HybridScheduler",),
    "repro.core.model": ("HybridModel",),
    "repro.core.opt.config": ("OptConfig", "OptReport"),
    "repro.core.opt.optimizer": ("PlanOptimizer",),
    "repro.core.plan": ("ExecutionPlan",),
    "repro.core.solverbinding": ("SolverBinding",),
    "repro.core.sport": ("SPort",),
    "repro.core.streamer": ("Streamer",),
    "repro.core.thread": ("StreamerThread",),
    "repro.core.timeservice": ("ContinuousTime",),
    "repro.umlrt.capsule": ("Capsule",),
    "repro.umlrt.controller": ("Controller",),
    "repro.umlrt.port": ("Port", "PortKind"),
    "repro.umlrt.protocol": ("Protocol",),
    "repro.umlrt.runtime": ("RTSystem",),
    "repro.umlrt.signal": ("Message", "Priority", "Signal"),
    "repro.umlrt.statemachine": ("State", "StateMachine", "Transition"),
    "repro.solvers.ivp": ("integrate",),
    "repro.solvers.registry": ("available_solvers", "make_solver"),
    "repro.service": ("SimulationService",),
    "repro.service.cache": ("PlanCache",),
    "repro.service.jobs": (
        "BatchJob", "CodegenJob", "JobHandle", "JobState",
        "ServiceOverloaded", "SingleRunJob",
    ),
    "repro.service.telemetry": ("MetricsRegistry",),
    "repro.check.diagnostics": ("Diagnostic", "FixIt"),
    "repro.check.registry": ("CheckConfig",),
    "repro.check.runner": (
        "CheckResult", "ChecksFailedError", "autofix", "run_checks",
    ),
    "repro.resilience.checkpoint": ("CheckpointManager",),
    "repro.resilience.codec": (
        "FingerprintMismatchError", "Snapshot", "SnapshotCodec",
        "SnapshotError",
    ),
    "repro.resilience.faults": ("FaultInjector",),
})

__all__ = [*_LAZY, "__version__", "cluster", "scenarios"]

if TYPE_CHECKING:
    from repro import cluster, scenarios
    from repro.check.diagnostics import Diagnostic, FixIt
    from repro.check.registry import CheckConfig
    from repro.check.runner import (
        CheckResult, ChecksFailedError, autofix, run_checks,
    )
    from repro.core.backend.base import (
        BackendProgram, CompileRequest, ExecutionBackend,
        available_backends, compile_program,
    )
    from repro.core.batch import (
        BatchResult, BatchSimulator, simulate_sequential,
    )
    from repro.core.builder import ModelBuilder
    from repro.core.channel import Channel, ChannelPolicy
    from repro.core.dport import DPort, Direction
    from repro.core.flow import Flow, Relay
    from repro.core.flowtype import DataKind, FlowType
    from repro.core.hybrid import HybridScheduler
    from repro.core.model import HybridModel
    from repro.core.opt.config import OptConfig, OptReport
    from repro.core.opt.optimizer import PlanOptimizer
    from repro.core.plan import ExecutionPlan
    from repro.core.solverbinding import SolverBinding
    from repro.core.sport import SPort
    from repro.core.streamer import Streamer
    from repro.core.thread import StreamerThread
    from repro.core.timeservice import ContinuousTime
    from repro.resilience.checkpoint import CheckpointManager
    from repro.resilience.codec import (
        FingerprintMismatchError, Snapshot, SnapshotCodec, SnapshotError,
    )
    from repro.resilience.faults import FaultInjector
    from repro.service import SimulationService
    from repro.service.cache import PlanCache
    from repro.service.jobs import (
        BatchJob, CodegenJob, JobHandle, JobState, ServiceOverloaded,
        SingleRunJob,
    )
    from repro.service.telemetry import MetricsRegistry
    from repro.solvers.ivp import integrate
    from repro.solvers.registry import available_solvers, make_solver
    from repro.umlrt.capsule import Capsule
    from repro.umlrt.controller import Controller
    from repro.umlrt.port import Port, PortKind
    from repro.umlrt.protocol import Protocol
    from repro.umlrt.runtime import RTSystem
    from repro.umlrt.signal import Message, Priority, Signal
    from repro.umlrt.statemachine import State, StateMachine, Transition
