"""The paper's contribution: UML-RT extended with time-continuous streamers.

This package implements the eight new stereotypes of Table 1 on top of the
:mod:`repro.umlrt` substrate:

========================  =====================================================
Stereotype                Implementation
========================  =====================================================
``streamer``              :class:`repro.core.streamer.Streamer`
``DPort``                 :class:`repro.core.dport.DPort`
``SPort``                 :class:`repro.core.sport.SPort`
``flow``                  :class:`repro.core.flow.Flow`
``relay``                 :class:`repro.core.flow.Relay`
``flow type``             :class:`repro.core.flowtype.FlowType`
``solver`` / ``strategy`` :class:`repro.core.solverbinding.SolverBinding`
``Time``                  :class:`repro.core.timeservice.ContinuousTime`
========================  =====================================================

Architecture (paper §2): event-driven capsules and continuous streamers run
on *different threads*; capsules keep hierarchical state machines under RTC
semantics, streamers compute differential equations through a pluggable
solver; the two worlds exchange signal messages over bounded channels
(:mod:`repro.core.channel`) through SPorts.  The hybrid scheduler
(:mod:`repro.core.hybrid`) interleaves the two worlds deterministically.

Public entry point: :class:`repro.core.model.HybridModel` (or the fluent
:class:`repro.core.builder.ModelBuilder`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.flowtype": ("DataKind", "FlowType", "FlowTypeError"),
    "repro.core.dport": ("Direction", "DPort", "DPortError"),
    "repro.core.sport": ("SPort", "SPortError"),
    "repro.core.flow": ("Flow", "FlowError", "Relay"),
    "repro.core.channel": ("Channel", "ChannelError", "ChannelPolicy"),
    "repro.core.timeservice": ("ContinuousTime", "TimeError"),
    "repro.core.streamer": ("Streamer", "StreamerError"),
    "repro.core.solverbinding": ("SolverBinding",),
    "repro.core.plan": (
        "ExecutionPlan", "PlanCounters", "PlanEdge", "PlanGuard",
        "PlanNode",
    ),
    "repro.core.batch": (
        "BatchChunk", "BatchError", "BatchProgram", "BatchResult",
        "BatchSimulator", "SweepVar", "compile_batch_program",
        "merge_chunks", "simulate_sequential",
    ),
    "repro.core.opt.config": ("OptConfig", "OptReport"),
    "repro.core.opt.optimizer": ("PlanOptimizer",),
    "repro.core.backend.base": (
        "BackendError", "BackendProgram", "BackendUnavailable",
        "CompileRequest", "ExecutionBackend", "ProgramResult",
        "available_backends", "compile_program", "fallback_chain",
        "get_backend", "register_backend",
    ),
    "repro.core.thread": ("StreamerThread",),
    "repro.core.hybrid": ("HybridScheduler",),
    "repro.core.model": ("HybridModel",),
    "repro.core.builder": ("ModelBuilder",),
    "repro.core.validation": (
        "ValidationError", "Violation", "validate_model",
    ),
})

if TYPE_CHECKING:
    from repro.core.flowtype import DataKind, FlowType, FlowTypeError
    from repro.core.dport import Direction, DPort, DPortError
    from repro.core.sport import SPort, SPortError
    from repro.core.flow import Flow, FlowError, Relay
    from repro.core.channel import Channel, ChannelError, ChannelPolicy
    from repro.core.timeservice import ContinuousTime, TimeError
    from repro.core.streamer import Streamer, StreamerError
    from repro.core.solverbinding import SolverBinding
    from repro.core.plan import (
        ExecutionPlan, PlanCounters, PlanEdge, PlanGuard, PlanNode,
    )
    from repro.core.batch import (
        BatchChunk, BatchError, BatchProgram, BatchResult, BatchSimulator,
        SweepVar, compile_batch_program, merge_chunks, simulate_sequential,
    )
    from repro.core.opt.config import OptConfig, OptReport
    from repro.core.opt.optimizer import PlanOptimizer
    from repro.core.backend.base import (
        BackendError, BackendProgram, BackendUnavailable, CompileRequest,
        ExecutionBackend, ProgramResult, available_backends,
        compile_program, fallback_chain, get_backend, register_backend,
    )
    from repro.core.thread import StreamerThread
    from repro.core.hybrid import HybridScheduler
    from repro.core.model import HybridModel
    from repro.core.builder import ModelBuilder
    from repro.core.validation import (
        ValidationError, Violation, validate_model,
    )
