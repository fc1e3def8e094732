"""The ``compiled-python`` backend: the Python kernel run in process.

Renders the lowered plan with :func:`repro.codegen.pygen.
render_python_kernel` — the body renderer ``generate_python`` uses too:
signal locals, derivative vector, statement-level sync replicas and a
solver-specialised step — and ``exec``s it, so a step is one code object
instead of a per-block interpreter dispatch; :func:`repro.core.loop.run`
drives those bodies through the fixed-step loop contract.  Works on any
host (no toolchain) and is bitwise identical to the ``interpreter``
backend:

* signal/derivative expressions come from the same emitters, applying
  the same IEEE-754 double operations the blocks apply;
* the solver stages replicate :mod:`repro.solvers.fixed` arithmetic
  term for term (grouping included);
* sampled blocks run the :attr:`~repro.codegen.common.BlockCode.
  sync_stmts` replica of ``SampledBlock.on_sync`` — same epsilon, same
  clock walk, reading pre-sync signal values exactly as the live blocks
  read pre-sync pads.

A run or step that leaves the state non-finite raises the solvers'
:class:`~repro.solvers.base.SolverError` (:func:`repro.core.loop.
check_finite`), as the interpreter does.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.codegen.common import PyLang
from repro.codegen.pygen import render_python_kernel
from repro.core import loop
from repro.core.backend.base import (
    CompileRequest, ExecutionBackend, KernelProgram, ProgramResult,
    kernel_solver_name, lower_request, register_backend,
)


class PyKernelProgram(KernelProgram):
    backend = "compiled-python"

    def __init__(self, model, solver_name: str, h: float) -> None:
        super().__init__(model, solver_name, h)
        self.source = render_python_kernel(model, solver_name)
        #: the kernel's held registers, bound into its closures, so
        #: every cursor change rewrites this one list in place
        self._held: List[float] = list(self._held0)
        namespace: Dict[str, Any] = {"math": math}
        exec(compile(self.source, "<pykernel>", "exec"), namespace)
        (
            self._deriv, self._outvals, self._sync, self._advance,
        ) = namespace["_build"](self._held)
        self._x: List[float] = list(self._x0)

    def _install(self, x: np.ndarray, held: Any) -> None:
        self._x = [float(v) for v in x]
        self._held[:] = self._held_row(held)

    def run(
        self,
        t_end: float,
        h: Optional[float] = None,
        record_every: int = 1,
    ) -> ProgramResult:
        times, series = self._run_loop(t_end, h, record_every)
        loop.check_finite(self._solver_name, self._t, self._x)
        return ProgramResult(
            t=times,
            series=series,
            final_state=self.x,
            stats={
                "backend": self.backend,
                "steps": self._step,
                "solver": self._solver_name,
            },
        )

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(
            self._deriv(float(t), x, self._held), dtype=float
        )


class PyKernelBackend(ExecutionBackend):
    name = "compiled-python"

    def compile(self, request: CompileRequest) -> PyKernelProgram:
        solver_name = kernel_solver_name(request)
        model = lower_request(request, PyLang())
        return PyKernelProgram(model, solver_name, request.h)


register_backend(PyKernelBackend())
