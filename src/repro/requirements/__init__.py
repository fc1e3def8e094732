"""Requirements capture and traceability.

The paper's workflow starts at "requirement analysis" and the unified
platform is supposed to carry requirements through model design,
simulation and code generation.  This package supplies the thin layer a
control project actually needs for that:

* :class:`Requirement` — id, text, kind (functional / timing / safety),
  acceptance criterion as an executable predicate over a finished model;
* :class:`RequirementSet` — registry with links from requirements to
  model elements (capsules, streamers, probes, threads) by name;
* :func:`trace_report` — coverage: which requirements are linked,
  which linked elements exist in the model, which acceptance checks pass
  after a simulation run.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.requirements.core": (
        "Requirement", "RequirementError", "RequirementSet", "TraceEntry",
        "trace_report",
    ),
})

if TYPE_CHECKING:
    from repro.requirements.core import (
        Requirement,
        RequirementError,
        RequirementSet,
        TraceEntry,
        trace_report,
    )
