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
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.codegen.common import KERNEL_VERSION, PyLang, kernel_tables
from repro.codegen.pygen import render_python_kernel
from repro.core import loop
from repro.core.backend.base import (
    BackendProgram, CompileRequest, ExecutionBackend, ProgramResult,
    kernel_solver_name, lower_request, register_backend,
)


class PyKernelProgram(BackendProgram):
    backend = "compiled-python"

    def __init__(self, model, solver_name: str, h: float) -> None:
        self._model = model
        self._plan = model.plan
        self._solver_name = solver_name
        self.h = float(h)
        self.source = render_python_kernel(model, solver_name)
        tables = kernel_tables(model)
        self._held_names: List[str] = [n for n, __ in tables["held"]]
        self._held0: List[float] = [v for __, v in tables["held"]]
        #: the kernel's held registers, bound into its closures, so
        #: every cursor change rewrites this one list in place
        self._held: List[float] = list(self._held0)
        namespace: Dict[str, Any] = {"math": math}
        exec(compile(self.source, "<pykernel>", "exec"), namespace)
        (
            self._deriv, self._outvals, self._sync, self._advance,
        ) = namespace["_build"](self._held)
        index_of = {name: i for i, name in enumerate(self._held_names)}
        #: ``(held slot, live leaf, attribute)`` rows for the hybrid
        #: scheduler's rhs bridge
        self._held_bindings = [
            (index_of[name], leaf, attr)
            for name, leaf, attr in tables["held_attrs"]
        ]
        self._x0: List[float] = [float(v) for v in model.initial_state]
        self._t = 0.0
        self._x: List[float] = list(self._x0)
        self._step = 0
        self._cold = True

    # ------------------------------------------------------------------
    @property
    def plan(self):
        return self._plan

    @property
    def t(self) -> float:
        return self._t

    @property
    def x(self) -> np.ndarray:
        return np.asarray(self._x, dtype=float)

    def record_labels(self) -> List[str]:
        return [label for label, __ in self._model.records]

    def fingerprint(self) -> str:
        return self._plan.fingerprint(extra={
            "backend": self.backend,
            "solver": self._solver_name,
            "records": tuple(self.record_labels()),
            "kernel": KERNEL_VERSION,
        })

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._t = 0.0
        self._x = list(self._x0)
        self._held[:] = self._held0
        self._step = 0
        self._cold = True

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
            final_state=np.asarray(self._x, dtype=float),
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

    def sync_now(self, t: float) -> None:
        """Run the sync replicas at ``t`` on the current held state."""
        self._sync(float(t), self._x)

    # ------------------------------------------------------------------
    # held-register bridge (hybrid scheduler)
    # ------------------------------------------------------------------
    def refresh_held_from_blocks(self) -> None:
        """Copy the live blocks' sample-and-hold registers into the
        kernel, so a derivative evaluated between syncs sees exactly what
        the interpreter would see."""
        held = self._held
        for slot, leaf, attr in self._held_bindings:
            held[slot] = float(getattr(leaf, attr))

    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        return {
            "t": self._t,
            "step": self._step,
            "cold": self._cold,
            "x": [float(v) for v in self._x],
            "held": {
                name: float(self._held[i])
                for i, name in enumerate(self._held_names)
            },
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self._t = float(state["t"])
        self._step = int(state["step"])
        self._cold = bool(state.get("cold", False))
        self._x = [float(v) for v in state["x"]]
        held = state.get("held", {})
        self._held[:] = [
            float(held.get(name, self._held0[i]))
            for i, name in enumerate(self._held_names)
        ]


class PyKernelBackend(ExecutionBackend):
    name = "compiled-python"

    def compile(self, request: CompileRequest) -> PyKernelProgram:
        solver_name = kernel_solver_name(request)
        model = lower_request(request, PyLang())
        return PyKernelProgram(model, solver_name, request.h)


register_backend(PyKernelBackend())
