"""Solver base classes and shared numerics helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

#: ODE right-hand side: f(t, y) -> dy/dt
RHS = Callable[[float, np.ndarray], np.ndarray]


class SolverError(Exception):
    """Raised on numerical failure (divergence, NaN, step underflow)."""


def non_finite(solver: str, t: float) -> str:
    """The head of every executor's divergence :class:`SolverError`
    message: the state reached at ``t`` holds an inf or a NaN."""
    return (
        f"{solver}: non-finite state at t={t:.6g} "
        "(diverged or step too large)"
    )


def check_finite(solver: str, t: float, x: Any) -> None:
    """Raise :class:`SolverError` when the state ``x`` reached at ``t``
    holds an inf or a NaN.

    The interpreter's solvers check each step they take; the compiled
    kernels step without them, so their programs check once per
    :func:`repro.core.loop.step` and once per run, before any record is
    returned.
    """
    if not np.isfinite(x).all():
        raise SolverError(non_finite(solver, t))


@dataclass
class StepResult:
    """Outcome of one solver step.

    Attributes
    ----------
    t:
        Time reached (``t0 + h_taken``).
    y:
        State at ``t``.
    h_taken:
        Step actually taken (adaptive solvers may shrink it).
    h_next:
        Suggested next step (fixed-step solvers echo ``h_taken``).
    error_estimate:
        Scaled local error norm if the method provides one, else ``None``.
    """

    t: float
    y: np.ndarray
    h_taken: float
    h_next: float
    error_estimate: Optional[float] = None


class SolverBase:
    """Common interface of all solvers.

    Subclasses implement :meth:`step`; :attr:`order` is the classical
    convergence order used in accuracy benchmarks (bench S1) and by the
    adaptive step controller.
    """

    name: str = "solver"
    order: int = 1
    #: True if the method solves an implicit stage equation each step.
    implicit: bool = False
    #: True if the step size adapts to a local error estimate.
    adaptive: bool = False
    #: True if :meth:`step` accepts a stacked ``(n_instances, n_state)``
    #: state matrix (all state arithmetic element-wise, no norms or
    #: scalar accept/reject decisions coupling instances).
    supports_batch: bool = False

    def step(self, f: RHS, t: float, y: np.ndarray, h: float) -> StepResult:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any per-integration internal state (step controller etc.)."""

    # -- checkpointing hooks (resilience layer) -------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Extract the solver's in-flight integration state.

        The contract is *bitwise resumability*: feeding the returned
        mapping to :meth:`restore_state` on a fresh instance of the same
        solver class must make subsequent :meth:`step` calls produce
        exactly the values an uninterrupted instance would have produced.
        Stateless methods return ``{}``; methods with controllers or
        caches (FSAL slots, PI error history, iteration counters)
        override both hooks.  Values must be plain data (floats, ints,
        ndarrays) — the snapshot codec refuses live objects.
        """
        return {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Re-inject state captured by :meth:`snapshot_state`."""
        if state:
            raise SolverError(
                f"{self.name}: unexpected snapshot state keys "
                f"{sorted(state)} (solver is stateless)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FixedStepSolver(SolverBase):
    """Base for methods that take exactly the step they are given.

    Every fixed-step ``_advance`` is shape-agnostic element-wise
    arithmetic, so these methods integrate a stacked ``(n, n_state)``
    batch exactly as they integrate one ``(n_state,)`` vector — each row
    sees bit-identical operations.
    """

    supports_batch = True

    def step(self, f: RHS, t: float, y: np.ndarray, h: float) -> StepResult:
        if h <= 0:
            raise SolverError(f"{self.name}: non-positive step {h}")
        y_new = self._advance(f, t, np.asarray(y, dtype=float), h)
        check_finite(self.name, t + h, y_new)
        return StepResult(t=t + h, y=y_new, h_taken=h, h_next=h)

    def _advance(self, f: RHS, t: float, y: np.ndarray, h: float) -> np.ndarray:
        raise NotImplementedError


def error_norm(error: np.ndarray, y_old: np.ndarray, y_new: np.ndarray,
               rtol: float, atol: float) -> float:
    """Hairer-style scaled RMS norm of a local error estimate."""
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    if error.size == 0:
        return 0.0
    return float(np.sqrt(np.mean((error / scale) ** 2)))
