"""The ``batch`` backend: the vectorised NumPy program as a registry entry.

Adapts :class:`~repro.core.batch.BatchSimulator` (n instances, one
``(n, n_state)`` state matrix) to the uniform :class:`BackendProgram`
surface.  The cursor semantics reuse the simulator's own
``resume_point``/``run_chunked(resume=...)`` machinery, so consecutive
:meth:`run` calls continue bitwise exactly as one long chunked run —
the contract the resilience layer already tests.  A run's series are
views of the simulator's one record buffer for that run, not copies.
The ``native-batch`` entry (:mod:`repro.core.backend.nativebatch`)
compiles through the same body into the same adapter, with a
native-backed simulator.  ``rhs`` is the NumPy program's on both; a
native-batch simulator builds that program on the first call.  Each
instance's records equal the interpreter's bitwise, sampled blocks
included.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional

import numpy as np

from repro.codegen.common import KERNEL_VERSION
from repro.core.backend.base import (
    BackendError, BackendProgram, BackendUnavailable, CompileRequest,
    ExecutionBackend, ProgramResult, register_backend,
)
from repro.core.batch import BatchError, BatchSimulator, merge_chunks


class BatchProgramAdapter(BackendProgram):
    """The uniform surface over a :class:`BatchSimulator`; its
    ``backend`` is the simulator's (``batch`` or ``native-batch``)."""

    def __init__(self, simulator: BatchSimulator) -> None:
        super().__init__(
            simulator.plan, simulator.binding.strategy_name, simulator.h,
            [label for label, __ in simulator.model.records],
        )
        self._sim = simulator
        self._held0 = copy.deepcopy(simulator.held_state())
        self._x = simulator.x0.copy()

    @property
    def backend(self) -> str:
        return self._sim.backend_name

    @property
    def simulator(self) -> BatchSimulator:
        return self._sim

    # ------------------------------------------------------------------
    def _rewind(self) -> None:
        self._x = self._sim.x0.copy()
        self._sim.restore_held_state(copy.deepcopy(self._held0))

    def _install(self, x: np.ndarray, held: Any) -> None:
        self._x = x
        if held:
            self._sim.restore_held_state({
                name: np.asarray(values, dtype=float)
                for name, values in held.items()
            })

    def _registers(self) -> Dict[str, Any]:
        return {
            name: np.asarray(values, dtype=float).tolist()
            for name, values in self._sim.held_state().items()
        }

    def _fingerprint_extras(self) -> Dict[str, Any]:
        return {
            "n": self._sim.n,
            "sweeps": tuple(self._sim.sweep_paths),
            "kernel": KERNEL_VERSION,
        }

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


class BatchBackend(ExecutionBackend):
    """The ``batch`` entry; ``native-batch`` shares its compile body."""

    name = "batch"

    def compile(self, request: CompileRequest) -> BatchProgramAdapter:
        if request.diagram is None:
            raise BackendError(
                f"the {self.name} backend compiles from a diagram (sweep "
                "paths and record labels resolve against it)"
            )
        self._check(request)
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
                backend=self.name,
                shards=request.shards,
                native_cache_dir=request.cache_dir,
            )
        except BatchError as exc:
            raise BackendUnavailable(str(exc)) from exc
        if simulator.backend_name != self.name:
            raise BackendUnavailable(simulator.backend_fallback_reason)
        return BatchProgramAdapter(simulator)

    def _check(self, request: CompileRequest) -> None:
        """Raise :class:`BackendUnavailable` before any lowering when
        this entry cannot serve ``request`` (nothing here)."""


register_backend(BatchBackend())
