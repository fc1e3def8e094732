"""The simulation service layer: the runtime between library and system.

:mod:`repro.core` gives one process a compiled
:class:`~repro.core.plan.ExecutionPlan` and backends to run it; this
package turns that into a *concurrent, cache-backed job service* — the
substrate the ROADMAP's "heavy traffic" north star builds on:

* :mod:`repro.service.cache` — a thread-safe, LRU-bounded,
  content-addressed :class:`PlanCache` keyed by plan fingerprints:
  structurally identical requests compile once and share the artefact.
* :mod:`repro.service.jobs` — job specs (single hybrid runs, vectorised
  batch sweeps, codegen), handles with blocking results and telemetry
  streams, and the cooperative cancellation/deadline protocol.
* :mod:`repro.service.engine` — the bounded worker pool: per-job
  deadlines, cancellation, retry-with-backoff for transient failures,
  and queue shedding (:class:`ServiceOverloaded`) under overload.
* :mod:`repro.service.telemetry` — per-job event streams over the
  paper's :class:`~repro.core.channel.Channel` plus a
  :class:`MetricsRegistry` of counters/gauges/latency histograms.

:class:`SimulationService` is the facade gluing them together::

    from repro import BatchJob, SimulationService

    with SimulationService(workers=4) as svc:
        handle = svc.submit(BatchJob(
            diagram_factory=make_loop, n=200, t_end=2.0,
            sweeps={"pid.kp": gains},
        ))
        for event in handle.stream():      # partial trajectories
            ...
        result = handle.result()           # merged BatchResult
        print(svc.metrics_snapshot())      # cache hit-rate, p95, ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro._lazy import lazy_exports
from repro.service.cache import CacheError, PlanCache
from repro.service.jobs import (
    BatchJob,
    CodegenJob,
    DeadlineInfeasible,
    JobCancelledError,
    JobContext,
    JobError,
    JobHandle,
    JobSpec,
    JobState,
    JobTimeoutError,
    ServiceOverloaded,
    SingleRunJob,
    SingleRunResult,
    TransientJobError,
)
from repro.service.telemetry import (
    BACKEND,
    CHECKS,
    Counter,
    EventEmitter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryEvent,
)

# the engine, admission and the checker load on use: a cluster worker
# imports the job specs, cache and telemetry through this package and
# needs none of them
__getattr__, __dir__, _LAZY = lazy_exports(__name__, {
    "repro.check.runner": ("ChecksFailedError",),
    "repro.service.admission": (
        "AdmissionDecision", "CostModel", "DeadlineAdmission",
    ),
    "repro.service.engine": ("JobEngine",),
})

if TYPE_CHECKING:
    from repro.check.runner import ChecksFailedError
    from repro.service.admission import (
        AdmissionDecision,
        CostModel,
        DeadlineAdmission,
    )
    from repro.service.engine import JobEngine

#: lint-gate policies: "off" skips the gate entirely, "warn" admits
#: every job but streams findings as a ``checks`` telemetry event,
#: "enforce" rejects specs with error-severity findings at submission
CHECK_POLICIES = ("off", "warn", "enforce")


class SimulationService:
    """One-stop facade: a plan cache, a job engine and shared metrics.

    Construction wires the three together (the engine hands itself to
    job contexts as ``service`` so jobs reach the cache); ``close`` —
    or leaving the ``with`` block — shuts the workers down.
    """

    def __init__(
        self,
        workers: int = 4,
        queue_limit: int = 64,
        cache_capacity: int = 128,
        check_policy: str = "off",
        check_config: Optional[Any] = None,
        default_opt_level: int = 0,
        dispatch: str = "fifo",
        deadline_admission: bool = False,
        admission_margin: float = 1.0,
    ) -> None:
        if check_policy not in CHECK_POLICIES:
            raise ValueError(
                f"check_policy must be one of {CHECK_POLICIES}: "
                f"{check_policy!r}"
            )
        self.check_policy = check_policy
        self.check_config = check_config
        #: plan-optimizer level applied to jobs that don't set their own
        #: ``opt_level``; each level keys the cache separately, so a
        #: service can change its default without serving stale artefacts
        self.default_opt_level = int(default_opt_level)
        self.metrics = MetricsRegistry()
        self.cache = PlanCache(
            capacity=cache_capacity, metrics=self.metrics,
        )
        from repro.service.admission import DeadlineAdmission
        from repro.service.engine import JobEngine

        #: deadline-aware admission (repro.service.admission): predicted
        #: per-kind cost (EMA-calibrated from completed jobs) gates
        #: submission, rejecting jobs whose predicted completion already
        #: misses their deadline; ``dispatch="edf"`` additionally orders
        #: the queue by earliest absolute deadline
        self.admission = (
            DeadlineAdmission(margin=admission_margin)
            if deadline_admission else None
        )
        self.engine = JobEngine(
            workers=workers,
            queue_limit=queue_limit,
            metrics=self.metrics,
            service=self,
            dispatch=dispatch,
            admission=self.admission,
        )

    # ------------------------------------------------------------------
    # the lint gate
    # ------------------------------------------------------------------
    def _gate_result(self, spec: JobSpec):
        """Lint the spec's model/diagram once; memoised on the spec.

        Returns the :class:`repro.check.CheckResult`, or ``None`` when
        the spec exposes no factory to build a checkable target from.
        """
        if spec._check_memo is not None:
            return spec._check_memo
        factory = getattr(spec, "model_factory", None)
        diagram = getattr(spec, "diagram_factory", None)
        if factory is not None:
            target = factory()
        elif diagram is not None:
            target = diagram()
            finalise = getattr(target, "finalise", None)
            if callable(finalise) and not getattr(
                target, "_finalised", True
            ):
                target = finalise()
        else:
            return None
        from repro.check import run_checks

        result = run_checks(target, config=self.check_config)
        spec._check_memo = result
        return result

    def _gate(self, spec: JobSpec):
        """Apply the check policy before admission; returns the result
        (or None) so :meth:`submit` can stream findings on warn."""
        result = self._gate_result(spec)
        if result is None:
            return None
        if result.errors:
            self.metrics.counter("checks.failed").inc()
            if self.check_policy == "enforce":
                from repro.check import ChecksFailedError

                raise ChecksFailedError(spec.name, result.errors)
        else:
            self.metrics.counter("checks.passed").inc()
        return result

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobHandle:
        """Enqueue any job spec; sheds with ServiceOverloaded when full.

        With ``check_policy="warn"`` or ``"enforce"`` the spec's model is
        statically linted first (memoised per spec): enforce rejects
        error-level findings with :class:`ChecksFailedError` before the
        job ever reaches the queue; warn admits the job but emits a
        ``checks`` telemetry event carrying the findings.
        """
        result = (
            self._gate(spec) if self.check_policy != "off" else None
        )
        handle = self.engine.submit(spec)
        if result is not None and result.diagnostics:
            EventEmitter(handle.id, handle.channel).emit(
                CHECKS,
                errors=len(result.errors),
                warnings=len(result.warnings),
                infos=len(result.infos),
                diagnostics=[d.to_json() for d in result.diagnostics],
            )
        return handle

    def submit_single_run(self, model_factory, t_end, **options) -> JobHandle:
        """Convenience: submit a :class:`SingleRunJob`."""
        return self.submit(SingleRunJob(
            model_factory=model_factory, t_end=t_end, **options,
        ))

    def submit_batch(self, diagram_factory, n, t_end, **options) -> JobHandle:
        """Convenience: submit a :class:`BatchJob`."""
        return self.submit(BatchJob(
            diagram_factory=diagram_factory, n=n, t_end=t_end, **options,
        ))

    def submit_codegen(self, diagram_factory, **options) -> JobHandle:
        """Convenience: submit a :class:`CodegenJob`."""
        return self.submit(CodegenJob(
            diagram_factory=diagram_factory, **options,
        ))

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """Everything observable in one nested dict: the registry's
        counters/gauges/histograms plus cache stats and live queue
        depth."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats()
        snapshot["queue"] = {
            "depth": self.engine.queue_depth,
            "limit": self.engine.queue_limit,
            "workers": self.engine.workers,
        }
        return snapshot

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every queued job to finish."""
        return self.engine.drain(timeout)

    def close(self, wait: bool = True) -> None:
        self.engine.shutdown(wait=wait)

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationService({self.engine!r}, cache={self.cache!r})"
        )


__all__ = [
    *_LAZY,
    "BatchJob",
    "CHECK_POLICIES",
    "CacheError",
    "CodegenJob",
    "DeadlineInfeasible",
    "Counter",
    "EventEmitter",
    "Gauge",
    "Histogram",
    "JobCancelledError",
    "JobContext",
    "JobError",
    "JobHandle",
    "JobSpec",
    "JobState",
    "JobTimeoutError",
    "MetricsRegistry",
    "PlanCache",
    "ServiceOverloaded",
    "SimulationService",
    "SingleRunJob",
    "SingleRunResult",
    "TelemetryEvent",
    "TransientJobError",
]
