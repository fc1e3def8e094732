"""Adaptive explicit Runge-Kutta: Dormand-Prince 5(4).

The embedded 4th-order solution provides a local error estimate; a PI
step-size controller keeps the scaled error norm near 1.  This is the
default solver for simulation-quality (non-real-time) streamer runs and
the reference against which fixed-step accuracy is benchmarked (bench S1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.base import (
    RHS, SolverBase, SolverError, StepResult, check_finite, error_norm,
)

# Dormand-Prince 5(4) Butcher tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [
        5179 / 57600,
        0.0,
        7571 / 16695,
        393 / 640,
        -92097 / 339200,
        187 / 2100,
        1 / 40,
    ]
)


class DormandPrince45(SolverBase):
    """Dormand-Prince RK5(4) with PI step control and FSAL reuse.

    Parameters
    ----------
    rtol, atol:
        Relative/absolute tolerances for the scaled error norm.
    safety:
        Step-size safety factor (classic 0.9).
    min_factor, max_factor:
        Bounds on per-step step-size change.
    max_rejects:
        Consecutive rejected steps before giving up.
    """

    name = "rk45"
    order = 5
    adaptive = True

    def __init__(
        self,
        rtol: float = 1e-6,
        atol: float = 1e-9,
        safety: float = 0.9,
        min_factor: float = 0.2,
        max_factor: float = 5.0,
        max_rejects: int = 20,
    ) -> None:
        if rtol <= 0 or atol <= 0:
            raise SolverError("tolerances must be positive")
        self.rtol = rtol
        self.atol = atol
        self.safety = safety
        self.min_factor = min_factor
        self.max_factor = max_factor
        self.max_rejects = max_rejects
        self._prev_err: Optional[float] = None
        self._fsal: Optional[np.ndarray] = None
        self._fsal_t: Optional[float] = None
        self.rejected_steps = 0
        self.accepted_steps = 0

    def reset(self) -> None:
        self._prev_err = None
        self._fsal = None
        self._fsal_t = None

    def snapshot_state(self):
        # the PI controller history and the FSAL slot are the only
        # inputs to future steps; counters ride along so resumed stats
        # match an uninterrupted run
        return {
            "prev_err": self._prev_err,
            "fsal": None if self._fsal is None else self._fsal.copy(),
            "fsal_t": self._fsal_t,
            "rejected_steps": self.rejected_steps,
            "accepted_steps": self.accepted_steps,
        }

    def restore_state(self, state):
        self._prev_err = state.get("prev_err")
        fsal = state.get("fsal")
        self._fsal = None if fsal is None else np.asarray(fsal, dtype=float)
        self._fsal_t = state.get("fsal_t")
        self.rejected_steps = int(state.get("rejected_steps", 0))
        self.accepted_steps = int(state.get("accepted_steps", 0))

    def step(self, f: RHS, t: float, y: np.ndarray, h: float) -> StepResult:
        """Attempt a step of at most ``h``; shrink until the error passes."""
        if h <= 0:
            raise SolverError(f"{self.name}: non-positive step {h}")
        y = np.asarray(y, dtype=float)
        rejects = 0
        while True:
            y_new, err = self._try_step(f, t, y, h)
            if err <= 1.0 or h <= 1e-14 * max(1.0, abs(t)):
                self.accepted_steps += 1
                h_next = h * self._growth_factor(err)
                self._prev_err = max(err, 1e-10)
                return StepResult(
                    t=t + h,
                    y=y_new,
                    h_taken=h,
                    h_next=h_next,
                    error_estimate=err,
                )
            rejects += 1
            self.rejected_steps += 1
            self._fsal = None  # FSAL invalid after rejection
            if rejects > self.max_rejects:
                raise SolverError(
                    f"rk45: {rejects} consecutive rejected steps at "
                    f"t={t:.6g} (err={err:.3g})"
                )
            h = max(
                h * max(self.min_factor, self.safety * err ** (-1.0 / 5.0)),
                1e-15,
            )

    def _growth_factor(self, err: float) -> float:
        if err == 0.0:
            return self.max_factor
        # PI controller: h_next = h * safety * err_n^{-b1} * err_{n-1}^{b2}
        beta1, beta2 = 0.7 / 5.0, 0.4 / 5.0
        factor = self.safety * err ** (-beta1)
        if self._prev_err is not None:
            factor *= self._prev_err ** beta2
        return float(min(self.max_factor, max(self.min_factor, factor)))

    def _try_step(self, f: RHS, t: float, y: np.ndarray, h: float):
        k = np.empty((7, y.size), dtype=float)
        if self._fsal is not None and self._fsal_t == t:
            k[0] = self._fsal
        else:
            k[0] = np.asarray(f(t, y), dtype=float)
        for i in range(1, 7):
            yi = y + h * (_A[i][: i] @ k[:i])
            k[i] = np.asarray(f(t + _C[i] * h, yi), dtype=float)
        y5 = y + h * (_B5 @ k)
        y4 = y + h * (_B4 @ k)
        check_finite(self.name, t + h, y5)
        err = error_norm(y5 - y4, y, y5, self.rtol, self.atol)
        # FSAL: k7 equals f(t+h, y5) by construction
        self._fsal = k[6]
        self._fsal_t = t + h
        return y5, err
