"""A Simulink-like block library built on streamers.

The paper positions its extension as subsuming the Simulink half of the
usual UML+Simulink tool pair.  This package provides that modelling
surface: every block *is* a leaf streamer (:class:`repro.core.streamer.
Streamer`), so diagrams built here drop straight into a
:class:`~repro.core.model.HybridModel`, get validated by the W-rules, and
are integrated by any solver strategy.

Module map:

* :mod:`repro.dataflow.sources` — Constant, Step, Ramp, Sine, Pulse,
  WhiteNoise, TimeSource;
* :mod:`repro.dataflow.math_blocks` — Gain, Bias, Sum, Product, Abs,
  Saturate-free arithmetic;
* :mod:`repro.dataflow.dynamics` — Integrator, FirstOrderLag,
  SecondOrderSystem, TransferFunction, StateSpace, PID;
* :mod:`repro.dataflow.nonlinear` — Saturation, DeadZone,
  RelayHysteresis, Quantizer, LookupTable1D;
* :mod:`repro.dataflow.discrete` — ZeroOrderHold, UnitDelay,
  DiscreteTransferFunction, DiscretePID, MovingAverage;
* :mod:`repro.dataflow.sinks` — Scope, Terminator;
* :mod:`repro.dataflow.diagram` — Diagram, a composite-streamer wrapper
  with name-based wiring.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.dataflow.block": ("Block", "BlockError"),
    "repro.dataflow.sources": (
        "Constant", "Pulse", "Ramp", "Sine", "Step", "TimeSource",
        "WhiteNoise",
    ),
    "repro.dataflow.math_blocks": ("Abs", "Bias", "Gain", "Product", "Sum"),
    "repro.dataflow.dynamics": (
        "PID", "FirstOrderLag", "Integrator", "SecondOrderSystem",
        "StateSpace", "TransferFunction",
    ),
    "repro.dataflow.nonlinear": (
        "DeadZone", "LookupTable1D", "Quantizer", "RelayHysteresis",
        "Saturation",
    ),
    "repro.dataflow.discrete": (
        "DiscretePID", "DiscreteTransferFunction", "MovingAverage",
        "UnitDelay", "ZeroOrderHold",
    ),
    "repro.dataflow.ode": ("OdeBlock",),
    "repro.dataflow.routing": (
        "FilteredDerivative", "RateLimiter", "Switch", "TransportDelay",
    ),
    "repro.dataflow.sinks": ("Scope", "Terminator"),
    "repro.dataflow.diagram": ("Diagram",),
})

if TYPE_CHECKING:
    from repro.dataflow.block import Block, BlockError
    from repro.dataflow.sources import (
        Constant,
        Pulse,
        Ramp,
        Sine,
        Step,
        TimeSource,
        WhiteNoise,
    )
    from repro.dataflow.math_blocks import Abs, Bias, Gain, Product, Sum
    from repro.dataflow.dynamics import (
        PID,
        FirstOrderLag,
        Integrator,
        SecondOrderSystem,
        StateSpace,
        TransferFunction,
    )
    from repro.dataflow.nonlinear import (
        DeadZone,
        LookupTable1D,
        Quantizer,
        RelayHysteresis,
        Saturation,
    )
    from repro.dataflow.discrete import (
        DiscretePID,
        DiscreteTransferFunction,
        MovingAverage,
        UnitDelay,
        ZeroOrderHold,
    )
    from repro.dataflow.ode import OdeBlock
    from repro.dataflow.routing import (
        FilteredDerivative,
        RateLimiter,
        Switch,
        TransportDelay,
    )
    from repro.dataflow.sinks import Scope, Terminator
    from repro.dataflow.diagram import Diagram
