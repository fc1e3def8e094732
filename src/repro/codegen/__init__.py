"""Code generation from hybrid models.

The paper's pitch is a single platform "from requirement analysis, model
design, simulation, until generation code".  This package closes the last
step for the continuous (streamer) half of a model:

* :mod:`repro.codegen.pygen` — a standalone Python module (no ``repro``
  import) with an RK4 integration loop: the ``compiled-python`` kernel
  body plus ``simulate``; round-trip tested against the library
  simulation in bench S3;
* :mod:`repro.codegen.cgen` — equivalent C99 (single translation unit,
  CSV output): the native kernels' body plus ``main``;
* :mod:`repro.codegen.common` — the shared lowering: flatten the diagram,
  name signals/states, and emit per-block output/derivative expressions
  and the one sampled-block sync form.

Both generated programs print the interpreter's records bitwise (C when
built with ``-ffp-contract=off``).  Supported blocks: every continuous
block of :mod:`repro.dataflow` plus ZOH/UnitDelay sampled blocks.
Custom streamers raise
:class:`~repro.codegen.common.UnsupportedBlockError` — generate from
library blocks or extend the emitter registry.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.codegen.common": ("CodegenError", "UnsupportedBlockError", "lower"),
    "repro.codegen.pygen": ("generate_python",),
    "repro.codegen.cgen": ("generate_c",),
    "repro.codegen.smgen": (
        "SMGenError", "flatten_machine", "generate_statemachine_c",
        "generate_statemachine_python",
    ),
})

if TYPE_CHECKING:
    from repro.codegen.common import (
        CodegenError, UnsupportedBlockError, lower,
    )
    from repro.codegen.pygen import generate_python
    from repro.codegen.cgen import generate_c
    from repro.codegen.smgen import (
        SMGenError,
        flatten_machine,
        generate_statemachine_c,
        generate_statemachine_python,
    )
