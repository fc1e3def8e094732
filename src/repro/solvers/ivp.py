"""High-level initial-value-problem driver.

:func:`integrate` runs any solver from ``t0`` to ``t1``, recording the
trajectory and localising zero-crossing events on the way.  It steps
through :func:`repro.core.loop.integrate`, as a streamer thread's slice
between two sync points does, and serves standalone plant simulation,
tests and the solver benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

# ``repro.core.loop`` imports ``repro.solvers.base``, which loads this
# package; a module reference resolves ``loop.integrate`` at call time,
# whichever of the two loads first
from repro.core import loop
from repro.solvers.base import RHS, SolverBase, SolverError, StepResult
from repro.solvers.events import EventOccurrence, EventSpec, ZeroCrossingDetector
from repro.solvers.history import Trajectory


@dataclass
class IntegrationResult:
    """Everything :func:`integrate` produces."""

    trajectory: Trajectory
    events: List[EventOccurrence] = field(default_factory=list)
    terminated_by_event: bool = False
    steps: int = 0

    @property
    def t_final(self) -> float:
        return self.trajectory.t_final

    @property
    def y_final(self) -> np.ndarray:
        return self.trajectory.y_final


def integrate(
    f: RHS,
    y0: Union[np.ndarray, Sequence[float], float],
    t0: float,
    t1: float,
    solver: SolverBase,
    h: float,
    events: Optional[Sequence[EventSpec]] = None,
    labels: Optional[Sequence[str]] = None,
    max_steps: int = 10_000_000,
) -> IntegrationResult:
    """Integrate ``y' = f(t, y)`` from ``t0`` to ``t1``.

    Parameters
    ----------
    solver:
        Any :class:`~repro.solvers.base.SolverBase`; adaptive solvers treat
        ``h`` as the initial step.
    h:
        (Initial) step size; the final step is shortened to land exactly
        on ``t1``.
    events:
        Zero-crossing specs.  A ``terminal`` event stops integration at the
        event time; the event state becomes the final sample.
    """
    if t1 < t0:
        raise SolverError(f"t1={t1} earlier than t0={t0}")
    if h <= 0:
        raise SolverError(f"non-positive step {h}")
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    solver.reset()
    trajectory = Trajectory(labels=labels)
    trajectory.append(t0, y)
    detector: Optional[ZeroCrossingDetector] = None
    if events:
        detector = ZeroCrossingDetector(list(events))
        detector.reset(t0, y)
    result = IntegrationResult(trajectory=trajectory)

    def on_step(t: float, y: np.ndarray, outcome: StepResult) -> bool:
        result.steps += 1
        if result.steps > max_steps:
            raise SolverError(
                f"integration exceeded {max_steps} steps at t={t:.6g}"
            )
        if detector is not None:
            occurrences = detector.check_step(t, y, outcome.t, outcome.y)
            terminal_hit: Optional[EventOccurrence] = None
            for occ in occurrences:
                result.events.append(occ)
                if occ.spec.terminal and terminal_hit is None:
                    terminal_hit = occ
            if terminal_hit is not None:
                trajectory.append(terminal_hit.t, terminal_hit.y)
                result.terminated_by_event = True
                return True
        trajectory.append(outcome.t, outcome.y)
        return False

    loop.integrate(solver.step, f, t0, y, t1, h, solver.adaptive, on_step)
    return result
