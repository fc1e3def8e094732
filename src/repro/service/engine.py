"""The job engine: bounded workers, deadlines, retries, shedding.

The runtime heart of the service layer — an actor-ish pool in the spirit
of the paper's thread separation: submission is an O(1) enqueue onto a
*bounded* queue (overflow is shed with :class:`~repro.service.jobs.
ServiceOverloaded`, never buffered without limit), and a fixed set of
worker threads drains it.  Threads are the right default because batch
jobs spend their time inside NumPy (which releases the GIL) and share
the in-process plan cache; ``executor="process"`` trades both away for
hard isolation via a spawning :class:`concurrent.futures.
ProcessPoolExecutor` (picklable specs only, telemetry reduced to
start/end events).

Per-job guarantees:

* **Deadline** — wall-clock from submission.  A job that expires while
  queued is failed without touching a worker; a running job observes the
  deadline at its next checkpoint.  Either way the slot is released.
* **Cancellation** — :meth:`~repro.service.jobs.JobHandle.cancel` drops
  queued jobs on dequeue and stops running jobs at their next
  checkpoint.
* **Bounded retry** — :class:`~repro.service.jobs.TransientJobError`
  triggers an exponential-backoff retry, up to ``spec.retries`` times,
  on the same worker; the backoff sleep itself honours cancellation and
  the deadline.

Every transition feeds the :class:`~repro.service.telemetry.
MetricsRegistry`: queue depth gauge, per-terminal-state counters, and a
wall-time histogram summarised as p50/p95.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.service.admission import DeadlineAdmission
from repro.service.jobs import (
    DeadlineInfeasible, JobCancelledError, JobContext, JobError,
    JobHandle, JobSpec, JobState, JobTimeoutError, ServiceOverloaded,
    TransientJobError,
)
from repro.service.telemetry import (
    ADMISSION, EventEmitter, MetricsRegistry, STATE, TelemetryEvent,
)

_SHUTDOWN = object()

#: dispatch orders: FIFO (the classic queue) or EDF (earliest absolute
#: deadline first; deadline-less jobs sort last, ties by submit order)
DISPATCH_ORDERS = ("fifo", "edf")


class _EventTap:
    """A Channel-shaped sink that records every pushed event.

    Worker processes cannot share the parent's job channel, so the
    isolated execution path collects events here and ships the list back
    with the result for replay onto the real channel."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Any] = []

    def push(self, event: Any) -> bool:
        self.events.append(event)
        return True


class _IsolatedServices:
    """What a spec sees of the service inside an isolated worker: a
    fresh metrics registry (dumped back to the parent on completion) and
    the parent's default opt level — but no shared plan cache."""

    __slots__ = ("metrics", "cache", "default_opt_level")

    def __init__(self, default_opt_level: int = 0) -> None:
        from repro.service.telemetry import MetricsRegistry as _Registry

        self.metrics = _Registry()
        self.cache = None
        self.default_opt_level = default_opt_level


@dataclass
class IsolatedOutcome:
    """What a process worker ships back: the spec's result plus the
    telemetry events and metrics recorded while it ran (all picklable).
    Events from a failed attempt are lost with the exception — the
    engine's retry machinery, not telemetry, is the record of those."""

    result: Any
    events: List[Any] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)


def _execute_isolated(
    spec: JobSpec,
    attempts: int = 1,
    job_id: str = "isolated",
    default_opt_level: int = 0,
) -> IsolatedOutcome:
    """Run a spec in a worker process (module-level so it pickles).

    The parent's attempt count rides along so resilience-aware specs can
    tell a retry (restore from the spool) from a first attempt; the
    job id keeps forwarded events addressed like in-process ones.
    Telemetry emitted during the run is captured and returned with the
    result instead of being silently dropped."""
    handle = JobHandle(job_id, spec)
    handle.state = JobState.RUNNING
    handle.attempts = attempts
    tap = _EventTap()
    services = _IsolatedServices(default_opt_level)
    emitter = EventEmitter(job_id, tap)
    result = spec.execute(
        JobContext(handle, service=services, emitter=emitter)
    )
    return IsolatedOutcome(
        result=result, events=tap.events, metrics=services.metrics.dump(),
    )


class JobEngine:
    """Executes submitted jobs on a bounded worker pool."""

    def __init__(
        self,
        workers: int = 4,
        queue_limit: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        service: Optional[Any] = None,
        executor: str = "thread",
        dispatch: str = "fifo",
        admission: Optional[DeadlineAdmission] = None,
    ) -> None:
        if workers < 1:
            raise JobError(f"need at least one worker, got {workers}")
        if queue_limit < 1:
            raise JobError(f"queue limit must be >= 1: {queue_limit}")
        if executor not in ("thread", "process"):
            raise JobError(
                f"unknown executor {executor!r}; use 'thread' or 'process'"
            )
        if dispatch not in DISPATCH_ORDERS:
            raise JobError(
                f"unknown dispatch order {dispatch!r}; use one of "
                f"{DISPATCH_ORDERS}"
            )
        self.workers = workers
        self.queue_limit = queue_limit
        self.executor = executor
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
        self._pool = None  # lazy ProcessPoolExecutor
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
                handle.channel.close()
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
            handle.channel.close()
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
            if handle is _SHUTDOWN:
                self._queue.task_done()
                return
            try:
                self._run_job(handle)
            finally:
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
        emitter.emit(STATE, state=JobState.RUNNING.value)
        ctx = JobContext(handle, service=self.service, emitter=emitter)
        spec = handle.spec
        attempt = 0
        while True:
            handle.attempts = attempt + 1
            try:
                if self.executor == "process":
                    result = self._run_isolated(handle)
                else:
                    result = spec.execute(ctx)
            except JobCancelledError:
                self._finalise(handle, emitter, JobState.CANCELLED)
                return
            except JobTimeoutError:
                self._finalise(handle, emitter, JobState.TIMEOUT)
                return
            except TransientJobError as exc:
                if attempt >= spec.retries:
                    self._finalise(
                        handle, emitter, JobState.FAILED, error=exc,
                    )
                    return
                self.metrics.counter("jobs.retries").inc()
                emitter.emit(
                    STATE, state="retrying", attempt=attempt + 1,
                    error=str(exc),
                )
                if not self._backoff_wait(handle, attempt):
                    # cancelled or deadline-expired during backoff
                    state = (
                        JobState.CANCELLED if handle.cancel_requested
                        else JobState.TIMEOUT
                    )
                    self._finalise(handle, emitter, state)
                    return
                attempt += 1
                continue
            except BaseException as exc:
                self._finalise(handle, emitter, JobState.FAILED, error=exc)
                return
            self._finalise(handle, emitter, JobState.DONE, result=result)
            return

    def _backoff_wait(self, handle: JobHandle, attempt: int) -> bool:
        """Sleep ``backoff * 2**attempt``, honouring cancel/deadline.
        Returns False if the job should stop instead of retrying."""
        delay = handle.spec.backoff * (2 ** attempt)
        deadline_at = handle.deadline_at
        wake_at = time.monotonic() + delay
        while True:
            now = time.monotonic()
            if handle.cancel_requested:
                return False
            if deadline_at is not None and now > deadline_at:
                return False
            if now >= wake_at:
                return True
            time.sleep(min(0.01, wake_at - now))

    def _run_isolated(self, handle: JobHandle) -> Any:
        """Execute in a process pool (hard isolation, picklable specs).

        The pool spawns its workers: this process runs the engine's
        worker threads, and a fork taken while they hold a lock
        deadlocks the child."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
            pool = self._pool
        try:
            future = pool.submit(
                _execute_isolated, handle.spec, handle.attempts,
                handle.id,
                getattr(self.service, "default_opt_level", 0) or 0,
            )
        except Exception as exc:  # unpicklable spec, broken pool
            raise JobError(
                f"could not dispatch job {handle.id} to the process "
                f"pool: {exc}"
            ) from exc
        deadline_at = handle.deadline_at
        timeout = (
            None if deadline_at is None
            else max(0.0, deadline_at - time.monotonic())
        )
        try:
            outcome = future.result(timeout=timeout)
        except FutureTimeout:
            future.cancel()
            raise JobTimeoutError(
                f"job {handle.id} exceeded its deadline in the process "
                "pool"
            ) from None
        # replay the worker's telemetry onto the real channel and fold
        # its metrics into the service registry — before this, events
        # emitted inside a process worker were silently dropped
        for event in outcome.events:
            try:
                handle.channel.push(event)
            except Exception:
                break
        if outcome.metrics:
            self.metrics.merge(outcome.metrics)
        return outcome.result

    def _finalise(
        self,
        handle: JobHandle,
        emitter: EventEmitter,
        state: JobState,
        result: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        if handle.started_at is None:
            handle.started_at = time.monotonic()
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
        emitter.emit(
            STATE, state=state.value,
            error=None if error is None else str(error),
        )
        handle.channel.close()

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
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobEngine(workers={self.workers}, "
            f"queued={self._queue.qsize()}/{self.queue_limit}, "
            f"executor={self.executor!r})"
        )
