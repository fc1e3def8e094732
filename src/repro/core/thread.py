"""Streamer threads.

"In the model, we can use any number of streamers, which are assigned to
one or several threads during implementation" (paper §2).  A
:class:`StreamerThread` is such an implementation thread: it owns a set of
top-level streamers, a solver binding (the Figure-1 strategy slot) and a
minor step size.  The hybrid scheduler asks each thread to integrate its
partition of the flat network between synchronisation points.

Two backends exist:

* the default **cooperative** backend integrates inline when the scheduler
  asks — deterministic, reproducible, and what all tests use;
* the **real-thread** backend (:class:`RealThreadPool`) runs each thread's
  integration slice on an actual OS thread, demonstrating claim C3 on real
  primitives.  Determinism is preserved because threads only read/write
  their own partition and cross-thread pads are frozen during a slice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence

import numpy as np

from repro._fanout import fan_out
from repro.core import loop
from repro.core.solverbinding import SolverBinding
from repro.core.streamer import Streamer, StreamerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import ExecutionPlan


class StreamerThread:
    """A logical thread executing streamers via a solver strategy.

    Parameters
    ----------
    name:
        Thread name (unique within a model).
    solver:
        Solver name or instance for the :class:`SolverBinding`.
    h:
        Minor (integration) step size used between sync points.
    """

    def __init__(
        self,
        name: str,
        solver: Any = "rk4",
        h: float = 1e-3,
        **solver_kwargs: Any,
    ) -> None:
        if h <= 0:
            raise StreamerError(f"thread {name!r}: non-positive step {h}")
        self.name = name
        self.binding = SolverBinding(solver, **solver_kwargs)
        self.h = h
        self.streamers: List[Streamer] = []
        #: filled by the hybrid scheduler at build time
        self.leaves: List[Streamer] = []
        #: this thread's :class:`~repro.core.plan.ExecutionPlan` view
        #: (own nodes, in-thread edges only) — set by the scheduler
        self.plan: Optional["ExecutionPlan"] = None
        #: optional replacement for ``plan.rhs`` inside
        #: :meth:`integrate_slice` — the hybrid scheduler installs a
        #: compiled-kernel derivative here when an execution backend is
        #: bound.  Must be bitwise-equivalent to ``plan.rhs``.
        self.rhs_override: Optional[Any] = None
        self.minor_steps = 0

    def assign(self, streamer: Streamer) -> Streamer:
        """Assign a top-level streamer (and hence all its leaves) here."""
        if streamer.thread is not None and streamer.thread is not self:
            raise StreamerError(
                f"streamer {streamer.path()} already assigned to thread "
                f"{streamer.thread.name!r}"
            )
        if streamer.parent is not None:
            raise StreamerError(
                "only top-level streamers are assigned to threads; "
                f"{streamer.path()} is nested"
            )
        streamer.thread = self
        if streamer not in self.streamers:
            self.streamers.append(streamer)
        return streamer

    # ------------------------------------------------------------------
    # integration slice (called by the hybrid scheduler)
    # ------------------------------------------------------------------
    def integrate_slice(
        self,
        state: np.ndarray,
        t0: float,
        t1: float,
    ) -> np.ndarray:
        """Advance this thread's leaves from ``t0`` to ``t1`` in-place.

        ``self.plan`` is this thread's view of the shared
        :class:`~repro.core.plan.ExecutionPlan` (own nodes, in-thread
        edges only — cross-thread pads stay frozen during the slice).
        The global ``state`` vector is shared, but this thread only
        writes its own nodes' slices, so slices may run on real threads
        safely.  The steps are :func:`repro.core.loop.integrate`'s,
        clamped at ``t1``; an adaptive solver's last ``h_next`` is the
        next slice's first step.
        """
        plan = self.plan
        if plan is None or not plan.nodes:
            return state

        rhs = self.rhs_override if self.rhs_override is not None \
            else plan.rhs

        # Work on a private copy: the RHS only reads this thread's slices
        # (other nodes are filtered out and cross-thread pads are frozen),
        # so concurrent threads never observe each other's intermediates.
        __, y, self.h, steps = loop.integrate(
            self.binding.step, rhs, t0, state.copy(), t1, self.h,
            self.binding.solver.adaptive,
        )
        self.minor_steps += steps
        # publish only this thread's slices back into the shared vector
        for node in plan.nodes:
            if node.hi > node.lo:
                state[node.lo:node.hi] = y[node.lo:node.hi]
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamerThread({self.name!r}, solver="
            f"{self.binding.strategy_name}, h={self.h}, "
            f"streamers={len(self.streamers)})"
        )


class RealThreadPool:
    """Run each thread's integration slice on an actual OS thread.

    Used by bench C3 to show the architecture maps directly onto OS
    threads ("easy to realize on existing UML-RT platforms"): slices are
    data-disjoint, so :func:`repro._fanout.fan_out` runs one slice per
    OS thread, the first on the scheduler's own, and returns at the sync
    point barrier.
    """

    def __init__(self, threads: Sequence[StreamerThread]) -> None:
        self.threads = list(threads)
        self.slices_run = 0

    def run_slices(
        self,
        state: np.ndarray,
        t0: float,
        t1: float,
    ) -> None:
        """Integrate every thread's plan view over ``[t0, t1]``."""
        active = [thread for thread in self.threads if thread.leaves]
        fan_out(
            lambda thread: thread.integrate_slice(state, t0, t1),
            active, max(1, len(active)),
        )
        self.slices_run += 1
