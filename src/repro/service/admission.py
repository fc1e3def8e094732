"""Deadline-aware admission control shared by service and cluster.

The schedulability engine's lesson applied at the service boundary: a
job whose predicted completion time already exceeds its deadline should
be *rejected at admission*, not queued to fail — the same reasoning that
makes SCHED001 reject an infeasible thread set before it runs.

Two pieces:

* :class:`CostModel` — per-job-kind exponential moving averages of
  observed wall time, with a global EMA fallback for kinds not yet
  seen.  This is the calibrated per-job cost predictor; the
  :class:`~repro.service.engine.JobEngine` feeds it every DONE job,
  the cluster pool every job a worker reports DONE.
* :class:`DeadlineAdmission` — the predicate: predicted completion is
  the predicted cost inflated by queue pressure
  (``cost * (1 + queued / workers)``, the cluster's historic formula),
  admitted iff it fits inside ``deadline * margin``.  Decisions are
  returned as :class:`AdmissionDecision` records so callers can emit
  them as ADMISSION telemetry and count them as ``sched.*`` metrics.

Jobs without a deadline are always admitted (only the queue bound
protects the service, as before); prediction starts once at least one
observation exists, so a cold service never rejects on a guess.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission evaluation."""

    admitted: bool
    #: "ok", "no_deadline", "cold" (no data yet) or "deadline_infeasible"
    reason: str
    #: predicted single-job cost, None while cold
    predicted_cost: Optional[float] = None
    #: predicted completion including queue pressure, None while cold
    predicted_completion: Optional[float] = None
    deadline: Optional[float] = None

    def as_payload(self) -> Dict[str, object]:
        """The ADMISSION telemetry payload."""
        return {
            "admitted": self.admitted,
            "reason": self.reason,
            "predicted_cost": self.predicted_cost,
            "predicted_completion": self.predicted_completion,
            "deadline": self.deadline,
        }


class CostModel:
    """Per-kind EMA cost predictor with a global fallback.

    ``observe(kind, wall)`` folds one completed job's wall time in;
    ``predict(kind)`` returns the kind's EMA, the global EMA when the
    kind is unseen, or ``None`` while no job has completed at all.
    """

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"EMA alpha must be in (0, 1]: {alpha}")
        self.alpha = alpha
        self._by_kind: Dict[str, float] = {}
        self._global: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, kind: str, wall: float) -> None:
        if wall < 0:
            return
        with self._lock:
            previous = self._by_kind.get(kind)
            self._by_kind[kind] = (
                wall if previous is None
                else previous + self.alpha * (wall - previous)
            )
            self._global = (
                wall if self._global is None
                else self._global + self.alpha * (wall - self._global)
            )

    def predict(self, kind: str) -> Optional[float]:
        with self._lock:
            return self._by_kind.get(kind, self._global)

    def seed(self, kind: str, wall: float) -> None:
        """Pin an initial estimate (e.g. from a static analysis) that
        subsequent observations refine."""
        with self._lock:
            self._by_kind.setdefault(kind, wall)
            if self._global is None:
                self._global = wall

    def snapshot(self) -> Dict[str, Optional[float]]:
        with self._lock:
            out: Dict[str, Optional[float]] = dict(self._by_kind)
            out["*"] = self._global
            return out


class DeadlineAdmission:
    """The shared deadline-feasibility predicate."""

    def __init__(
        self, cost_model: Optional[CostModel] = None, margin: float = 1.0,
    ) -> None:
        if margin <= 0:
            raise ValueError(f"admission margin must be > 0: {margin}")
        self.cost_model = cost_model or CostModel()
        self.margin = margin

    def evaluate(
        self,
        kind: str,
        deadline: Optional[float],
        queued: int,
        workers: int,
    ) -> AdmissionDecision:
        """Admit unless predicted completion exceeds the deadline.

        ``queued`` jobs ahead on ``workers`` slots inflate the per-job
        prediction to ``cost * (1 + queued / workers)`` — each queued
        job delays this one by a worker-share of its cost.
        """
        if deadline is None:
            return AdmissionDecision(True, "no_deadline")
        cost = self.cost_model.predict(kind)
        if cost is None:
            return AdmissionDecision(
                True, "cold", deadline=deadline,
            )
        completion = cost * (1.0 + queued / max(1, workers))
        admitted = completion <= deadline * self.margin
        return AdmissionDecision(
            admitted=admitted,
            reason="ok" if admitted else "deadline_infeasible",
            predicted_cost=cost,
            predicted_completion=completion,
            deadline=deadline,
        )
