"""Deterministic fault injection for resilience testing.

A :class:`FaultInjector` holds a seeded, reproducible *fault plan*: kill
the run at major step k, corrupt the continuous state so the solver
diverges, preempt a job at its deadline, or flip a byte in a checkpoint
file.  Faults ride the same passive ``on_major_step`` hook the
checkpoint manager uses, so an armed-but-never-fired injector changes
nothing about the run.

All runtime faults are :class:`InjectedFault` subclasses of
:class:`~repro.service.jobs.TransientJobError` — deliberately, so the
bounded-retry path engine threads and cluster workers share
(:func:`~repro.service.jobs.run_attempts`) is what exercises crash
recovery: the retried attempt finds the spool directory, restores the
latest valid checkpoint and resumes instead of cold-restarting.

Determinism: the only randomness is a private ``random.Random(seed)``;
two injectors with the same seed and the same plan calls fire the same
faults at the same steps, which is what lets tests assert a killed-and-
resumed run is bitwise identical to an uninterrupted one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro.resilience.codec import corrupt_bytes
from repro.service.jobs import TransientJobError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hybrid import HybridScheduler


class InjectedFault(TransientJobError):
    """Base class for injected runtime faults (retryable by design)."""


class InjectedCrash(InjectedFault):
    """A simulated worker crash mid-run."""


class InjectedDivergence(InjectedFault):
    """A solver blow-up provoked by corrupting the continuous state."""


class InjectedPreemption(InjectedFault):
    """A simulated deadline preemption: the worker slot was reclaimed."""


@dataclass
class PlannedFault:
    """One entry of a fault plan (fires at most once).

    ``attempt`` pins the fault to one job attempt (default: the first).
    This matters when a retried attempt arms a fresh copy of the
    injector — a cluster job that migrates rebuilds its spec on another
    worker, with the attempt count bumped — whose ``fired`` flags never
    saw the first attempt: without the pin a crash fault would re-fire
    on every attempt and recovery could never complete.  ``None`` fires
    on any attempt (once per copy)."""

    kind: str
    step: int
    magnitude: float = 0.0
    attempt: Optional[int] = 1
    fired: bool = False


@dataclass
class FaultRecord:
    """What actually fired, for assertions and telemetry."""

    kind: str
    step: int
    t: float


class FaultInjector:
    """A seeded plan of faults to inject into a scheduler run.

    Plan methods return ``self`` so plans chain::

        injector = FaultInjector(seed=7).crash_at_step(120)

    The injector object outlives job attempts (it is part of the spec),
    so every planned fault fires exactly once across retries — the
    resumed attempt runs past the crash step untouched.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.plan: List[PlannedFault] = []
        self.fired: List[FaultRecord] = []
        self._divergence_pending = False
        self._attempt = 1

    # ------------------------------------------------------------------
    # plan construction
    # ------------------------------------------------------------------
    def crash_at_step(
        self, step: int, attempt: Optional[int] = 1
    ) -> "FaultInjector":
        """Raise :class:`InjectedCrash` once major step ``step`` completes."""
        self.plan.append(PlannedFault("crash", int(step), attempt=attempt))
        return self

    def crash_between(
        self, lo: int, hi: int, attempt: Optional[int] = 1
    ) -> "FaultInjector":
        """Crash at a seeded-random major step in ``[lo, hi]``."""
        if hi < lo:
            raise ValueError(f"empty crash window [{lo}, {hi}]")
        return self.crash_at_step(
            self._rng.randint(int(lo), int(hi)), attempt=attempt,
        )

    def diverge_at_step(
        self, step: int, magnitude: float = 1e308,
        attempt: Optional[int] = 1,
    ) -> "FaultInjector":
        """Overwrite the continuous state with ``magnitude`` at step
        ``step`` so the next integration slice fails its finiteness
        check — the injected analogue of a genuinely diverging model.
        The default sits at the float ceiling so even a *stable* model
        overflows on the first RHS evaluation rather than damping the
        corruption back down."""
        self.plan.append(
            PlannedFault("diverge", int(step), magnitude, attempt=attempt)
        )
        return self

    def preempt_at_step(
        self, step: int, attempt: Optional[int] = 1
    ) -> "FaultInjector":
        """Raise :class:`InjectedPreemption` once step ``step`` completes."""
        self.plan.append(PlannedFault("preempt", int(step), attempt=attempt))
        return self

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(
        self, scheduler: "HybridScheduler", attempt: int = 1
    ) -> None:
        """Chain onto ``on_major_step``; arm *after* any checkpoint
        manager so a checkpoint due at the crash step is written before
        the fault fires.  ``attempt`` is the job attempt being armed —
        faults pinned to a different attempt stay dormant."""
        self._attempt = int(attempt)
        inner = scheduler.on_major_step

        def observe(t_now: float) -> None:
            if inner is not None:
                inner(t_now)
            self._check(scheduler, t_now)

        scheduler.on_major_step = observe

    def _check(self, scheduler: "HybridScheduler", t_now: float) -> None:
        for fault in self.plan:
            if fault.fired or scheduler.major_steps < fault.step:
                continue
            if fault.attempt is not None and fault.attempt != self._attempt:
                continue
            fault.fired = True
            self.fired.append(
                FaultRecord(fault.kind, scheduler.major_steps, t_now)
            )
            if fault.kind == "crash":
                raise InjectedCrash(
                    f"injected crash at major step {scheduler.major_steps} "
                    f"(t={t_now:g}, seed={self.seed})"
                )
            if fault.kind == "preempt":
                raise InjectedPreemption(
                    f"injected preemption at major step "
                    f"{scheduler.major_steps} (t={t_now:g})"
                )
            if fault.kind == "diverge":
                self._divergence_pending = True
                if scheduler.state is not None and scheduler.state.size:
                    scheduler.state[:] = fault.magnitude
                else:
                    # no continuous state to corrupt: fail directly
                    raise InjectedDivergence(
                        f"injected divergence at major step "
                        f"{scheduler.major_steps} (model has no "
                        "continuous state)"
                    )

    def consume_divergence(self) -> bool:
        """True once after a divergence fault fired — the job layer uses
        this to reclassify the resulting solver error as injected (and
        therefore retryable)."""
        pending, self._divergence_pending = self._divergence_pending, False
        return pending

    # ------------------------------------------------------------------
    # storage faults
    # ------------------------------------------------------------------
    def corrupt_checkpoint(self, spool_dir) -> Optional[Path]:
        """Flip one seeded byte of the newest checkpoint in ``spool_dir``.

        Returns the corrupted path, or None if the spool is empty.  The
        CRC in the snapshot container must catch the damage —
        :meth:`~repro.resilience.checkpoint.CheckpointManager.load_latest`
        then falls back to the previous checkpoint.
        """
        from repro.resilience.checkpoint import SUFFIX

        files = sorted(Path(spool_dir).glob(f"ckpt-*{SUFFIX}"))
        if not files:
            return None
        target = files[-1]
        data = target.read_bytes()
        # corrupt the body, not the header: exercises the CRC path rather
        # than the (also fatal, but less interesting) header parse
        header_end = data.find(b"\n") + 1
        offset = header_end + self._rng.randrange(
            max(1, len(data) - header_end)
        )
        target.write_bytes(corrupt_bytes(data, offset))
        self.fired.append(FaultRecord("corrupt", -1, float("nan")))
        return target
