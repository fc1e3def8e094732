"""The ``interpreter`` backend: the reference execution semantics.

Wraps :meth:`ExecutionPlan.evaluate`/``rhs`` plus the live blocks'
``on_sync`` hooks in the uniform :class:`BackendProgram` surface.  This
is the semantic ground truth every other backend is differential-tested
against — it runs the (possibly optimized) plan *directly*, so at O1/O2
it executes the same rewritten node table the kernels were emitted from.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.backend.base import (
    BackendError, BackendProgram, CompileRequest, ExecutionBackend,
    ProgramResult, register_backend,
)
from repro.core.plan import default_records
from repro.core.solverbinding import SolverBinding


def resolve_record_ports(plan, records, port_at) -> List[Tuple[str, Any]]:
    """``(label, DPort)`` pairs for a record request: explicit
    ``"block.port"`` paths resolve through ``port_at``, the default is
    :func:`~repro.core.plan.default_records` over the plan's leaves."""
    if not records:
        return default_records(node.leaf for node in plan.nodes)
    if port_at is None:
        raise BackendError(
            "explicit record paths need a diagram (port_at resolver)"
        )
    return [(path, port_at(path)) for path in records]


class InterpreterProgram(BackendProgram):
    backend = "interpreter"
    registers_key = "extras"

    def __init__(
        self,
        plan,
        initial_state: np.ndarray,
        records: List[Tuple[str, Any]],
        solver: Any,
        h: float,
    ) -> None:
        self._binding = SolverBinding(solver)
        super().__init__(
            plan, self._binding.strategy_name, h,
            [label for label, __ in records],
        )
        self._initial = np.asarray(initial_state, dtype=float).copy()
        self._ports = [port for __, port in records]
        # blocks are live objects shared with the diagram; capture their
        # pristine discrete state now so reset() can truly rewind (the
        # restore hook mutates — pops — the dict it is given, and e.g.
        # UnitDelay's restore default is 0.0, not its y0)
        self._initial_extra = self._registers()
        self._x = self._initial.copy()

    # ------------------------------------------------------------------
    def _rewind(self) -> None:
        self._x = self._initial.copy()
        for node in self._plan.nodes:
            node.leaf.restore_extra_state(
                copy.deepcopy(self._initial_extra[node.leaf.path()])
            )
        self._binding.reset()
        self._rewind_observers(None)

    def _install(self, x: np.ndarray, extras: Any) -> None:
        # the binding's trajectory history is monotone-checked; a restore
        # may rewind time, so the history must restart at the cursor
        self._binding.reset()
        self._x = x
        extras = extras or {}
        for node in self._plan.nodes:
            extra = extras.get(node.leaf.path())
            if extra is not None:
                node.leaf.restore_extra_state(copy.deepcopy(extra))
        self._rewind_observers(self._t)

    def _registers(self) -> Dict[str, Any]:
        return {
            node.leaf.path(): copy.deepcopy(node.leaf.extra_state())
            for node in self._plan.nodes
        }

    def _rewind_observers(self, t_cursor: Optional[float]) -> None:
        """Truncate live Scope-style trajectories to the cursor.

        Scopes append at every sync and their histories are
        monotone-checked, so rewinding the program must discard the
        samples past the restore point (``None``: all of them) or the
        next sync would be rejected as time going backwards.
        """
        from repro.solvers.history import Trajectory

        for node in self._plan.nodes:
            old = getattr(node.leaf, "trajectory", None)
            if not isinstance(old, Trajectory):
                continue
            fresh = Trajectory(labels=old.labels)
            if t_cursor is not None:
                for t_sample, row in zip(old.times, old.states):
                    if t_sample > t_cursor:
                        break
                    fresh.append(t_sample, row)
            node.leaf.trajectory = fresh

    def _sync(self, t: float, x: np.ndarray) -> None:
        # pads first (each on_sync reads its *pre-sync* input value, the
        # same snapshot the kernels' sync replicas read), then the hooks
        # in plan-node order
        self._plan.evaluate(t, x)
        for node in self._plan.nodes:
            node.leaf.on_sync(t)

    def _advance(
        self, t: float, x: np.ndarray, h: float,
    ) -> Tuple[float, np.ndarray]:
        result = self._binding.step(self._plan.rhs, t, x, h)
        return result.t, result.y

    def _outvals(self, t: float, x: np.ndarray) -> Tuple[float, ...]:
        self._plan.evaluate(t, x)
        return tuple(port.read_scalar() for port in self._ports)

    def run(
        self,
        t_end: float,
        h: Optional[float] = None,
        record_every: int = 1,
    ) -> ProgramResult:
        times, series = self._run_loop(t_end, h, record_every)
        return ProgramResult(
            t=times,
            series=series,
            final_state=self._x.copy(),
            stats={
                "backend": self.backend,
                "steps": self._step,
                "evaluations": self._plan.counters.evaluations,
            },
        )

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        return self._plan.rhs(t, np.asarray(x, dtype=float))


class InterpreterBackend(ExecutionBackend):
    name = "interpreter"

    def compile(self, request: CompileRequest) -> InterpreterProgram:
        network = request.resolved_network()
        plan = request.plan
        if plan is None:
            from repro.core.opt import resolve_config

            config = resolve_config(request.opt_level, request.opt_config)
            protect = []
            if config.is_active and request.records:
                port_at = request.port_at()
                if port_at is None:
                    raise BackendError(
                        "explicit records on an optimized plan need a "
                        "diagram to protect the recorded pads"
                    )
                protect = [port_at(path) for path in request.records]
            plan = network.plan(opt_config=config, protect=protect)
        records = resolve_record_ports(
            plan, request.records, request.port_at()
        )
        return InterpreterProgram(
            plan, network.initial_state(), records,
            request.solver, request.h,
        )


register_backend(InterpreterBackend())
