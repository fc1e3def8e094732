"""The fixed-step loop contract, defined once.

Every executor of an :class:`~repro.core.plan.ExecutionPlan` — the
interpreter, the compiled-python and native kernels, the NumPy and
native batch programs, the sequential reference and the generated
programs — advances a cursor ``(t, x, step, cold)`` the same way:

* the loop runs while ``t < t_end - EPS`` (:data:`EPS`), so a clock
  that lands within rounding of ``t_end`` has arrived;
* each step is ``hh = min(h, t_end - t)``: full steps, then one short
  step onto ``t_end``;
* before a step, a record is taken when ``step % record_every == 0``
  (``step`` counts every step since the cursor was cold, across runs);
* one cold sync runs before the first step of a cold cursor, and a sync
  after every step;
* a run may be cut after ``max_steps`` steps (a chunk boundary) and
  resumed later from the returned cursor without repeating a sync; the
  run that reaches ``t_end`` records once more there;
* a state that goes non-finite raises
  :class:`~repro.solvers.base.SolverError` (:func:`check_finite`), and
  the run, or chunk, that reached it returns no records.

:func:`run` is the executable spec.  The Python executors run their own
sync, step and record bodies through it, and
:meth:`~repro.codegen.common.CLang.fixed_step_loop` renders the same
loop in C.  A single :func:`step` outside a run takes the step it is
given, unclamped.  :func:`integrate` steps a solver the same way, with
no records or syncs and under its own end rule (:data:`SLICE_RTOL`):
the hybrid scheduler's slices and :func:`repro.solvers.ivp.integrate`
step through it.
:func:`step_count` and :func:`record_capacity` size chunks and record
buffers.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Tuple

from repro.solvers.base import RHS, StepResult, check_finite

__all__ = [
    "EPS", "SLICE_RTOL", "check_finite", "integrate", "record_capacity",
    "run", "step", "step_count",
]

#: the loop runs while ``t < t_end - EPS``
EPS = 1e-12
#: :func:`integrate` runs while ``t < t_end - SLICE_RTOL * max(1, |t_end|)``:
#: a clock that accumulated to a few ulps below a large ``t_end`` has
#: arrived, where :data:`EPS` would take one more step of those ulps
SLICE_RTOL = 1e-14

#: ``sync(t, x)``: the sample-and-hold update at ``t``
Sync = Callable[[float, Any], None]
#: ``advance(t, x, hh) -> (t + hh, x_next)``: one solver step
Advance = Callable[[float, Any, float], Tuple[float, Any]]
#: ``outvals(t, x) -> row``: the recorded values at ``t``
Outvals = Callable[[float, Any], Any]
#: ``solver_step(f, t, y, h) -> StepResult``: one solver step
SolverStep = Callable[[RHS, float, Any, float], StepResult]
#: ``on_step(t, y, result) -> stop``: sees a step before it is taken
OnStep = Callable[[float, Any, StepResult], bool]


def run(
    t: float,
    x: Any,
    step: int,
    cold: bool,
    t_end: float,
    h: float,
    record_every: int,
    sync: Sync,
    advance: Advance,
    outvals: Outvals,
    max_steps: int = 0,
) -> Tuple[float, Any, int, bool, List[float], List[Any]]:
    """Advance the cursor ``(t, x, step, cold)`` towards ``t_end``.

    Stops at ``t_end`` or after ``max_steps`` steps (0: no cut),
    whichever comes first.  Returns ``(t, x, step, done, times, rows)``:
    the cursor reached, whether it is at ``t_end``, and the record times
    with their ``outvals`` rows.
    """
    times: List[float] = []
    rows: List[Any] = []
    if cold:
        sync(t, x)
    taken = 0
    while t < t_end - EPS:
        hh = h if h < t_end - t else t_end - t
        if step % record_every == 0:
            times.append(t)
            rows.append(outvals(t, x))
        t, x = advance(t, x, hh)
        step += 1
        sync(t, x)
        taken += 1
        if taken == max_steps and t < t_end - EPS:
            return t, x, step, False, times, rows
    times.append(t)
    rows.append(outvals(t, x))
    return t, x, step, True, times, rows


def step(
    t: float, x: Any, cold: bool, h: float, sync: Sync, advance: Advance,
) -> Tuple[float, Any]:
    """One step of ``h`` outside a run: the cold sync when due, the
    step, its sync.  Returns ``(t, x)``; the caller counts the step."""
    if cold:
        sync(t, x)
    t, x = advance(t, x, h)
    sync(t, x)
    return t, x


def integrate(
    solver_step: SolverStep,
    f: RHS,
    t: float,
    y: Any,
    t_end: float,
    h: float,
    adaptive: bool,
    on_step: Optional[OnStep] = None,
) -> Tuple[float, Any, float, int]:
    """Step ``(t, y)`` towards ``t_end`` with ``solver_step`` on ``f``.

    While ``t < t_end - SLICE_RTOL * max(1, |t_end|)``, one step of
    ``min(h, t_end - t)``, as in :func:`run`.  An ``adaptive`` solver's
    ``h_next`` is the next ``h``.
    ``on_step(t, y, result)`` sees each step before the cursor takes
    it, and stops the loop there by returning true.  Returns
    ``(t, y, h, steps)``: the cursor reached, the step size to go on
    with and the number of solver steps made.
    """
    steps = 0
    stop = t_end - SLICE_RTOL * max(1.0, abs(t_end))
    while t < stop:
        result = solver_step(f, t, y, h if h < t_end - t else t_end - t)
        steps += 1
        if on_step is not None and on_step(t, y, result):
            break
        t, y = result.t, result.y
        if adaptive:
            h = result.h_next
    return t, y, h, steps


def step_count(t: float, t_end: float, h: float) -> int:
    """The steps :func:`run` takes from ``t`` to ``t_end``, before
    rounding in the accumulated clock (which can add or save one)."""
    if not t < t_end - EPS:
        return 0
    if not h > 0:
        return 1  # never arrives; a record buffer overflows at once
    return math.ceil((t_end - t - EPS) / h)


def record_capacity(
    t: float,
    t_end: float,
    h: float,
    record_every: int,
    max_steps: int = 0,
) -> int:
    """A record-buffer length no :func:`run` from ``t`` to ``t_end`` (at
    most ``max_steps`` steps, when positive) can overflow: one record
    per ``record_every`` steps, the first and the final record, and one
    step of slack for the accumulated clock."""
    steps = step_count(t, t_end, h) + 1
    if max_steps > 0:
        steps = min(steps, max_steps)
    return steps // max(1, int(record_every)) + 2
