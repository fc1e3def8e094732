"""The job engine: bounded workers, deadlines, retries, shedding.

The runtime heart of the service layer — an actor-ish pool in the spirit
of the paper's thread separation: submission is an O(1) enqueue onto a
*bounded* queue (overflow is shed with :class:`~repro.service.jobs.
ServiceOverloaded`, never buffered without limit), and a fixed set of
worker threads drains it.  Threads suit the service because batch jobs
spend their time inside NumPy (which releases the GIL) and share the
in-process plan cache; hard process isolation is the cluster's
:class:`~repro.cluster.pool.WorkerPool`, whose worker processes run the
same attempt loop (:func:`~repro.service.jobs.run_attempts`).

Per-job guarantees:

* **Deadline** — wall-clock from submission.  A job that expires while
  queued is failed without touching a worker; a running job observes the
  deadline at its next checkpoint.  Either way the slot is released.
* **Cancellation** — :meth:`~repro.service.jobs.JobHandle.cancel` drops
  queued jobs on dequeue and stops running jobs at their next
  checkpoint.
* **Bounded retry** — :class:`~repro.service.jobs.TransientJobError`
  triggers an exponential-backoff retry, up to ``spec.retries`` times,
  on the same worker (:func:`~repro.service.jobs.run_attempts`); the
  backoff sleep itself honours cancellation and the deadline.

Every transition feeds the :class:`~repro.service.telemetry.
MetricsRegistry`: queue depth gauge, per-terminal-state counters, and a
wall-time histogram summarised as p50/p95.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Any, List, Optional

from repro.service.admission import DeadlineAdmission
from repro.service.jobs import (
    DeadlineInfeasible, JobContext, JobError, JobHandle, JobSpec, JobState,
    ServiceOverloaded, run_attempts,
)
from repro.service.telemetry import (
    ADMISSION, EventEmitter, MetricsRegistry, STATE, TelemetryEvent,
)

_SHUTDOWN = object()

#: dispatch orders: FIFO (the classic queue) or EDF (earliest absolute
#: deadline first; deadline-less jobs sort last, ties by submit order)
DISPATCH_ORDERS = ("fifo", "edf")


class JobEngine:
    """Executes submitted jobs on a bounded worker pool."""

    def __init__(
        self,
        workers: int = 4,
        queue_limit: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        service: Optional[Any] = None,
        dispatch: str = "fifo",
        admission: Optional[DeadlineAdmission] = None,
    ) -> None:
        if workers < 1:
            raise JobError(f"need at least one worker, got {workers}")
        if queue_limit < 1:
            raise JobError(f"queue limit must be >= 1: {queue_limit}")
        if dispatch not in DISPATCH_ORDERS:
            raise JobError(
                f"unknown dispatch order {dispatch!r}; use one of "
                f"{DISPATCH_ORDERS}"
            )
        self.workers = workers
        self.queue_limit = queue_limit
        self.dispatch = dispatch
        #: deadline-aware admission predicate (None = admit everything
        #: the bounded queue accepts); its EMA cost model is calibrated
        #: from every DONE job's wall time in :meth:`_finalise`
        self.admission = admission
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.service = service
        # EDF uses a priority queue keyed by absolute deadline; entries
        # are (key, tier, seq, handle) so handles never get compared and
        # shutdown sentinels (tier 1) drain only after real jobs
        self._queue: "queue.Queue" = (
            queue.PriorityQueue(maxsize=queue_limit) if dispatch == "edf"
            else queue.Queue(maxsize=queue_limit)
        )
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._closed = False
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-job-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobHandle:
        """Enqueue a job; O(1) (O(log n) under EDF), sheds with
        ServiceOverloaded when full and, when a deadline-aware admission
        predicate is installed, with DeadlineInfeasible when the
        predicted completion already misses the job's deadline."""
        with self._lock:
            if self._closed:
                raise JobError("engine is shut down")
            job_id = f"{spec.kind}-{next(self._ids)}"
        handle = JobHandle(job_id, spec)
        self.metrics.counter("jobs.submitted").inc()
        if self.admission is not None:
            decision = self.admission.evaluate(
                spec.kind, spec.deadline,
                queued=self._queue.qsize(), workers=self.workers,
            )
            self._emit_admission(handle, decision)
            if not decision.admitted:
                self.metrics.counter("sched.rejected.deadline").inc()
                error = DeadlineInfeasible(
                    f"job {job_id} rejected at admission: predicted "
                    f"completion {decision.predicted_completion:.3g}s "
                    f"exceeds deadline {decision.deadline:.3g}s"
                )
                handle._finish(JobState.FAILED, error=error)
                raise error
            self.metrics.counter("sched.admitted").inc()
        try:
            self._queue.put_nowait(self._entry(handle))
        except queue.Full:
            self.metrics.counter("jobs.rejected").inc()
            handle._finish(
                JobState.FAILED,
                error=ServiceOverloaded(
                    f"queue full ({self.queue_limit} pending); "
                    f"job {job_id} shed"
                ),
            )
            raise ServiceOverloaded(
                f"service overloaded: {self.queue_limit} jobs already "
                "queued"
            )
        self.metrics.gauge("queue.depth").set(self._queue.qsize())
        return handle

    def _entry(self, handle: Any) -> Any:
        """The queue item for one handle (EDF wraps in a sort key)."""
        if self.dispatch == "fifo":
            return handle
        if handle is _SHUTDOWN:
            # tier 1: sentinels sort after every real job at any key,
            # so queued work drains before the workers exit
            return (float("inf"), 1, next(self._seq), handle)
        deadline_at = handle.deadline_at
        key = float("inf") if deadline_at is None else deadline_at
        return (key, 0, next(self._seq), handle)

    def _emit_admission(self, handle: JobHandle, decision: Any) -> None:
        """Push an ADMISSION event onto the job's channel (seq -1: a
        submission-side event, outside the worker emitter's numbering —
        the same convention the cluster uses for MIGRATED)."""
        try:
            handle.channel.push(TelemetryEvent(
                ADMISSION, handle.id, seq=-1, t=float("nan"),
                payload=decision.as_payload(),
            ))
        except Exception:
            pass

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            handle = item if self.dispatch == "fifo" else item[3]
            # bind no job while blocked in get(): an idle worker would
            # keep its last handle, and so the job's result, alive
            del item
            if handle is _SHUTDOWN:
                self._queue.task_done()
                return
            try:
                self._run_job(handle)
            finally:
                del handle
                self._queue.task_done()
                self.metrics.gauge("queue.depth").set(self._queue.qsize())

    def _run_job(self, handle: JobHandle) -> None:
        emitter = EventEmitter(handle.id, handle.channel)
        if handle.cancel_requested:
            self._finalise(handle, emitter, JobState.CANCELLED)
            return
        deadline_at = handle.deadline_at
        if deadline_at is not None and time.monotonic() > deadline_at:
            # dead on arrival: expired while queued
            self._finalise(handle, emitter, JobState.TIMEOUT)
            return

        handle.state = JobState.RUNNING
        handle.started_at = time.monotonic()
        ctx = JobContext(handle, service=self.service, emitter=emitter)
        state, result, error = run_attempts(handle.spec, ctx, self.metrics)
        self._finalise(handle, emitter, state, result=result, error=error)

    def _finalise(
        self,
        handle: JobHandle,
        emitter: EventEmitter,
        state: JobState,
        result: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """The terminal ``state`` event, then the handle's one terminal
        transition (:meth:`JobHandle._finish`), then the metrics."""
        if handle.started_at is None:
            handle.started_at = time.monotonic()
        emitter.emit(
            STATE, state=state.value,
            error=None if error is None else str(error),
        )
        handle._finish(state, result=result, error=error)
        self.metrics.counter(f"jobs.{state.value}").inc()
        if handle.wall_time is not None and state is JobState.DONE:
            self.metrics.histogram("job.wall_time").observe(
                handle.wall_time
            )
            if self.admission is not None:
                # calibrate the per-kind cost predictor on the fact
                self.admission.cost_model.observe(
                    handle.spec.kind, handle.wall_time
                )
        deadline_at = handle.deadline_at
        if deadline_at is not None and handle.finished_at is not None:
            lateness = handle.finished_at - deadline_at
            met = state is JobState.DONE and lateness <= 0.0
            self.metrics.counter(
                "sched.deadline_met" if met else "sched.deadline_missed"
            ).inc()
            self.metrics.histogram("sched.lateness").observe(lateness)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every queued job has been processed."""
        if timeout is None:
            self._queue.join()
            return True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._queue.unfinished_tasks == 0:
                return True
            time.sleep(0.005)
        return self._queue.unfinished_tasks == 0

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for __ in self._threads:
            self._queue.put(self._entry(_SHUTDOWN))
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobEngine(workers={self.workers}, "
            f"queued={self._queue.qsize()}/{self.queue_limit})"
        )
