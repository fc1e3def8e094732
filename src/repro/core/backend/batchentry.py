"""The ``batch`` backend: the vectorised NumPy program as a registry entry.

Adapts :class:`~repro.core.batch.BatchSimulator` (n instances, one
``(n, n_state)`` state matrix) to the uniform :class:`BackendProgram`
surface.  The cursor semantics reuse the simulator's own
``resume_point``/``run_chunked(resume=...)`` machinery, so consecutive
:meth:`run` calls continue bitwise exactly as one long chunked run —
the contract the resilience layer already tests.  A run's series are
views of the simulator's one record buffer for that run, not copies.
``rhs`` is the NumPy program's on both batch adapters; a native-batch
simulator builds that program on the first call.  Each instance's
records equal the interpreter's bitwise, sampled blocks included.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.codegen.common import KERNEL_VERSION
from repro.core.backend.base import (
    BackendError, BackendProgram, BackendUnavailable, CompileRequest,
    ExecutionBackend, ProgramResult, register_backend,
)
from repro.core.batch import BatchError, BatchSimulator, merge_chunks


class BatchProgramAdapter(BackendProgram):
    backend = "batch"

    def __init__(self, simulator: BatchSimulator) -> None:
        self._sim = simulator
        self.h = simulator.h
        self._held0 = copy.deepcopy(simulator.held_state())
        self._t = 0.0
        self._x = simulator.x0.copy()
        self._step = 0
        self._cold = True

    # ------------------------------------------------------------------
    @property
    def plan(self):
        return self._sim.plan

    @property
    def simulator(self) -> BatchSimulator:
        return self._sim

    @property
    def t(self) -> float:
        return self._t

    @property
    def x(self) -> np.ndarray:
        return self._x

    def record_labels(self):
        return [label for label, __ in self._sim.model.records]

    def fingerprint(self) -> str:
        return self._sim.program.fingerprint(extra={
            "backend": self.backend,
            "n": self._sim.n,
            "solver": self._sim.binding.strategy_name,
            "kernel": KERNEL_VERSION,
        })

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._t = 0.0
        self._x = self._sim.x0.copy()
        self._step = 0
        self._cold = True
        self._sim.restore_held_state(copy.deepcopy(self._held0))

    def _resume_arg(self) -> Optional[Dict[str, Any]]:
        if self._cold:
            return None
        return self._sim.resume_point(
            self._t, self._x, self._step, self._step
        )

    def run(
        self,
        t_end: float,
        h: Optional[float] = None,
        record_every: int = 1,
    ) -> ProgramResult:
        chunks = list(self._sim.run_chunked(
            float(t_end), h=h, record_every=record_every,
            resume=self._resume_arg(),
        ))
        result = merge_chunks(chunks, self._sim.n)
        final = chunks[-1]
        self._t = float(final.t_now)
        self._x = np.asarray(final.final_states, dtype=float).copy()
        self._step = int(final.steps)
        self._cold = False
        stats = dict(result.stats)
        stats["backend"] = self.backend
        return ProgramResult(
            t=result.t,
            series=result.series,
            final_state=self._x.copy(),
            stats=stats,
        )

    def step(self, h: Optional[float] = None) -> float:
        hh = self.h if h is None else float(h)
        # a run two steps long, cut after its first: that step is ``hh``
        # unclamped, as :func:`repro.core.loop.step` takes it
        cut = next(self._sim.run_chunked(
            self._t + 2.0 * hh, h=hh, chunk_steps=1,
            resume=self._resume_arg(),
        )).resume
        self._t = float(cut["t"])
        self._x = cut["x"]
        self._step = int(cut["step"])
        self._cold = False
        return self._t

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(
            self._sim.rhs(float(t), np.asarray(x, dtype=float)),
            dtype=float,
        )

    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        return {
            "t": self._t,
            "step": self._step,
            "cold": self._cold,
            "x": self._x.tolist(),
            "held": {
                name: np.asarray(values, dtype=float).tolist()
                for name, values in self._sim.held_state().items()
            },
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self._t = float(state["t"])
        self._step = int(state["step"])
        self._cold = bool(state.get("cold", False))
        self._x = np.asarray(state["x"], dtype=float)
        held = state.get("held")
        if held:
            self._sim.restore_held_state({
                name: np.asarray(values, dtype=float)
                for name, values in held.items()
            })


class BatchBackend(ExecutionBackend):
    name = "batch"

    def compile(self, request: CompileRequest) -> BatchProgramAdapter:
        if request.diagram is None:
            raise BackendError(
                "the batch backend compiles from a diagram (sweep paths "
                "and record labels resolve against it)"
            )
        try:
            simulator = BatchSimulator(
                diagram=request.diagram,
                n=request.n,
                solver=request.solver,
                h=request.h,
                records=request.records,
                sweeps=request.sweeps,
                x0=request.x0,
                opt_level=request.opt_level,
                opt_config=request.opt_config,
            )
        except BatchError as exc:
            raise BackendUnavailable(str(exc)) from exc
        return BatchProgramAdapter(simulator)


register_backend(BatchBackend())
