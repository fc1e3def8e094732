"""Baselines: the two prior approaches the paper argues against.

The paper's introduction dismisses two alternatives for unifying hybrid
control modelling on UML-RT; both are implemented here so the claims can
be *measured* instead of asserted:

* :mod:`repro.baselines.kuhl` — Kühl et al. (RSP'01): translate the
  Simulink-style dataflow diagram into plain UML-RT capsules.  The paper:
  "lots of objects and classes may be generated, and some information may
  be lost."  Benchmark C1 counts exactly that.
* :mod:`repro.baselines.bichler` — Bichler et al. (RTS journal 26):
  attach directed equations to capsule states, i.e. integrate inside the
  discrete machinery.  The paper: "because UML is a foundational discrete
  language, this method doesn't work efficiently."  Benchmark C2 measures
  the per-step dispatch overhead and timing degradation.
* :mod:`repro.baselines.metrics` — model-size / message / information-
  loss metrics shared by both comparisons.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.baselines.kuhl": ("KuhlTranslation",),
    "repro.baselines.bichler": ("BichlerModel",),
    "repro.baselines.metrics": (
        "diagram_features", "information_loss", "model_size",
    ),
})

if TYPE_CHECKING:
    from repro.baselines.kuhl import KuhlTranslation
    from repro.baselines.bichler import BichlerModel
    from repro.baselines.metrics import (
        diagram_features,
        information_loss,
        model_size,
    )
