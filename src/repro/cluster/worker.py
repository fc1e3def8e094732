"""The cluster worker: the service's attempt loop in its own OS process.

One worker is one process running this module's :func:`worker_main`.
The protocol with the coordinator is a queue, a pipe and a shared
integer:

* ``feed`` (coordinator → worker): ``(MSG_JOB, envelope)`` dispatches
  one :class:`JobEnvelope`; ``(MSG_STOP,)`` ends the loop.
* ``outbox`` (worker → coordinator, one private pipe per worker):
  ``(MSG_READY, wid)`` requests work — the pull that drives the
  coordinator's deque/steal logic; ``(MSG_STARTED, …)``,
  ``(MSG_EVENT, …)`` and ``(MSG_DONE, …)`` report progress.  A pipe
  with a single writer, *not* a shared queue: a queue's cross-process
  write lock is a shared semaphore, and a worker SIGKILLed mid-``put``
  would leave it held forever, wedging every other worker's reports.
  A killed worker can only ever corrupt its own pipe, which the
  coordinator detects and discards.
* ``cancel_cell`` (a shared int64): the coordinator writes the *epoch*
  of the job it wants cancelled; the running job observes it at its
  next cooperative checkpoint.  Epochs are unique per dispatch, so a
  cancel can never hit the wrong job.

Execution reuses the service job specs verbatim — the worker rebuilds
the spec from the request (:func:`~repro.cluster.requests.build_spec`)
with its checkpoint spool pointed into the shared store, keeps a warm
per-process :class:`~repro.service.cache.PlanCache`, and runs it through
the service's own attempt loop (:func:`~repro.service.jobs.
run_attempts`), so retries, backoff and the ``running``/``retrying``
events are the engine's.  A re-dispatched envelope arrives with
``attempt > 1``, which is exactly the condition the specs' resume
machinery keys on: the new worker loads the newest valid checkpoint
from the store spool and continues — bitwise, for fixed-step plans —
where the dead worker stopped.

Every telemetry event a job emits is forwarded to the coordinator over
the outbox (no more in-worker black holes), and each DONE message
carries a :meth:`~repro.service.telemetry.MetricsRegistry.dump` of the
job-scoped metrics for the coordinator to merge.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.requests import ClusterJobRequest, build_spec
from repro.cluster.store import ArtifactStore
from repro.service.cache import PlanCache
from repro.service.jobs import JobContext, JobState, run_attempts
from repro.service.telemetry import EventEmitter, MetricsRegistry

#: wire message tags (worker <-> coordinator)
MSG_READY = "ready"
MSG_STARTED = "started"
MSG_EVENT = "event"
MSG_DONE = "done"
MSG_JOB = "job"
MSG_STOP = "stop"


@dataclass
class JobEnvelope:
    """One dispatched job as it rides the feed queue."""

    job_id: str
    request: ClusterJobRequest
    #: attempt number the worker starts at (migrations bump it, which is
    #: what arms checkpoint resume on the receiving worker)
    attempt: int = 1
    #: unique per-dispatch token; the cancel cell speaks in epochs
    epoch: int = 0
    #: wall-clock budget remaining at dispatch (None: no deadline)
    deadline_remaining: Optional[float] = None
    #: coordinator-side submission timestamp (diagnostics only)
    submitted_at: float = field(default_factory=time.monotonic)


class _ForwardChannel:
    """Channel-shaped shim that forwards pushed events to the outbox."""

    __slots__ = ("_outbox", "_worker_id", "_job_id")

    def __init__(self, outbox, worker_id: int, job_id: str) -> None:
        self._outbox = outbox
        self._worker_id = worker_id
        self._job_id = job_id

    def push(self, event: Any) -> bool:
        self._outbox.send(
            (MSG_EVENT, self._worker_id, self._job_id, event)
        )
        return True

    def close(self) -> None:  # channel protocol; end-of-stream is DONE
        pass


class _WorkerHandle:
    """The slice of a JobHandle a running spec actually reads:
    identity, attempt count, deadline and cooperative cancellation
    (backed by the shared cancel cell instead of a threading.Event)."""

    def __init__(
        self,
        job_id: str,
        spec,
        attempts: int,
        epoch: int,
        cancel_cell,
        deadline_remaining: Optional[float],
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.attempts = attempts
        self._epoch = epoch
        self._cancel_cell = cancel_cell
        self._deadline_at = (
            None if deadline_remaining is None
            else time.monotonic() + deadline_remaining
        )

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_cell.value == self._epoch

    @property
    def deadline_at(self) -> Optional[float]:
        return self._deadline_at


class _WorkerServices:
    """Per-job service view: a warm per-process plan cache shared across
    jobs, fresh job-scoped metrics (dumped back to the coordinator) and
    the cluster default opt level."""

    def __init__(self, cache: PlanCache, default_opt_level: int) -> None:
        self.cache = cache
        self.metrics = MetricsRegistry()
        self.default_opt_level = default_opt_level


def worker_main(
    worker_id: int,
    feed,
    outbox,
    cancel_cell,
    store_root: str,
    default_opt_level: int = 0,
) -> None:
    """The worker process entry point: pull, execute, report, repeat."""
    store = ArtifactStore(store_root)
    cache = PlanCache(capacity=64)
    while True:
        outbox.send((MSG_READY, worker_id))
        message = feed.get()
        if not message or message[0] == MSG_STOP:
            return
        envelope: JobEnvelope = message[1]
        job_id = envelope.job_id
        outbox.send((MSG_STARTED, worker_id, job_id, envelope.attempt))
        started = time.monotonic()
        services = _WorkerServices(cache, default_opt_level)
        state, result, error = _run_envelope(
            worker_id, envelope, outbox, cancel_cell, store, services,
        )
        wall = time.monotonic() - started
        # pre-pickle the result so a non-picklable payload degrades to a
        # clean failure here instead of a hang in the queue feeder thread
        result_bytes = b""
        if state is JobState.DONE:
            try:
                result_bytes = pickle.dumps(
                    result, protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception as exc:
                state = JobState.FAILED
                error = f"result not picklable: {exc}"
        outbox.send((
            MSG_DONE, worker_id, job_id, state.value, result_bytes,
            error, services.metrics.dump(), wall,
        ))
        # bind no job while blocked in feed.get(): an idle worker would
        # keep its last envelope and result alive
        del message, envelope, result, result_bytes, services


def _run_envelope(
    worker_id: int,
    envelope: JobEnvelope,
    outbox,
    cancel_cell,
    store: ArtifactStore,
    services: _WorkerServices,
):
    """Execute one envelope; returns ``(state, result, error_str)``."""
    job_id = envelope.job_id
    try:
        spec = build_spec(
            envelope.request, job_id,
            spool_dir=store.job_spool(job_id)
            if envelope.request.checkpoint else None,
        )
    except Exception as exc:
        return JobState.FAILED, None, f"bad request: {exc}"
    handle = _WorkerHandle(
        job_id, spec, envelope.attempt, envelope.epoch, cancel_cell,
        envelope.deadline_remaining,
    )
    emitter = EventEmitter(
        job_id, _ForwardChannel(outbox, worker_id, job_id),
    )
    ctx = JobContext(handle, service=services, emitter=emitter)
    state, result, error = run_attempts(spec, ctx, services.metrics)
    if error is not None:
        return state, None, "".join(
            traceback.format_exception_only(type(error), error)
        ).strip()
    return state, result, None


def result_from_wire(result_bytes: bytes) -> Any:
    """Decode a DONE message's result payload (coordinator side)."""
    if not result_bytes:
        return None
    return pickle.loads(result_bytes)
