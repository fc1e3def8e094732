"""Job specifications, handles and results for the simulation service.

A *job* is one unit of simulation work submitted to the
:class:`~repro.service.engine.JobEngine`: a single hybrid-model run, a
vectorised batch sweep, or a code-generation request.  Specs are plain
descriptions (factories + parameters, no live runtime objects) so they
can be queued and retried; a cluster worker process builds the same
specs from a plain request (:func:`~repro.cluster.requests.build_spec`).

Execution protocol: :func:`run_attempts` calls :meth:`JobSpec.execute`
with a :class:`JobContext` once per attempt; the engine's worker threads
and the cluster's worker processes both run their jobs through it.
Long-running jobs call :meth:`JobContext.checkpoint` at natural pause
points (between batch chunks, between major-step slices); that is where
cancellation and deadlines take effect — cooperatively, so a worker slot
is always released in a well-defined state rather than killed
mid-NumPy-call.  Progress and partial trajectories go out through
:meth:`JobContext.emit` onto the job's telemetry channel.

Failure vocabulary: raise :class:`TransientJobError` for failures worth a
bounded retry-with-backoff (:func:`run_attempts` re-runs the spec); any
other exception fails the job permanently.  :class:`ServiceOverloaded` is
raised at *submit* time when the bounded queue sheds load.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)

import numpy as np

from repro.core.batch import (
    BatchChunk, BatchResult, BatchSimulator, compile_batch_program,
    merge_chunks,
)
from repro.core import loop
from repro.core.channel import Channel, ChannelPolicy
from repro.core.network import FlatNetwork
from repro.service.telemetry import (
    BACKEND, CHUNK, EventEmitter, MetricsRegistry, PROGRESS, RESUMED, STATE,
    TelemetryEvent,
)
from repro.solvers.registry import solver_key

# NOTE: repro.resilience imports TransientJobError from this module, so
# everything resilience-side is imported lazily inside the execute paths.

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import HybridModel
    from repro.dataflow.diagram import Diagram
    from repro.solvers.history import Trajectory


# ----------------------------------------------------------------------
# errors and states
# ----------------------------------------------------------------------
class JobError(Exception):
    """Base class for job-level failures."""


class TransientJobError(JobError):
    """A failure the engine may retry (with backoff, up to the spec's
    retry budget): resource contention, a flaky external dependency."""


class ServiceOverloaded(JobError):
    """The bounded submission queue is full; the request was shed.

    Deliberate graceful degradation: a loaded service answers "try
    later" in O(1) instead of growing an unbounded backlog that takes
    every request down with it.
    """


class DeadlineInfeasible(ServiceOverloaded):
    """Deadline-aware admission rejected the job at submit time: the
    predicted completion time (EMA cost model inflated by queue
    pressure) already exceeds the job's deadline, so queueing it would
    only burn a worker slot on a guaranteed timeout.  A subclass of
    :class:`ServiceOverloaded` so existing shed-handling callers keep
    working."""


class JobCancelledError(JobError):
    """Raised by :meth:`JobHandle.result` for a cancelled job, and
    inside workers at the checkpoint that observes the cancellation."""


class JobTimeoutError(JobError):
    """Raised by :meth:`JobHandle.result` for a deadline-exceeded job,
    and inside workers at the checkpoint that observes the deadline."""


def _resolve_opt(ctx: "JobContext", opt_level: Optional[int]):
    """The effective :class:`~repro.core.opt.OptConfig` for one job:
    the spec's own ``opt_level`` or, when unset, the service-wide
    ``default_opt_level``."""
    from repro.core.opt import OptConfig

    level = opt_level
    if level is None:
        level = getattr(ctx.service, "default_opt_level", 0) or 0
    return OptConfig.from_level(int(level))


def _record_opt_metrics(ctx: "JobContext", report) -> None:
    """Surface a fresh compile's per-pass rewrite counts as service
    metrics (``opt.blocks_removed`` / ``opt.ops_fused``)."""
    if report is None:
        return
    metrics = getattr(ctx.service, "metrics", None)
    if metrics is None:
        return
    counts = report.counts()
    metrics.counter("opt.blocks_removed").inc(
        int(counts["opt.blocks_removed"])
    )
    metrics.counter("opt.ops_fused").inc(int(counts["opt.ops_fused"]))


def _report_backend(
    ctx: "JobContext",
    requested: str,
    effective: str,
    reason: Optional[str],
) -> None:
    """Surface a job's execution-backend resolution: one BACKEND
    telemetry event always, plus the ``backend.fallback`` counters when
    the effective backend is not the requested one."""
    ctx.emit(
        BACKEND, requested=requested, effective=effective, reason=reason,
    )
    metrics = getattr(ctx.service, "metrics", None)
    if metrics is None:
        return
    metrics.counter(f"backend.used.{effective}").inc()
    if effective != requested:
        metrics.counter("backend.fallback").inc()
        metrics.counter(f"backend.fallback.{requested}").inc()


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self not in (JobState.PENDING, JobState.RUNNING)


# ----------------------------------------------------------------------
# context and handle
# ----------------------------------------------------------------------
class JobContext:
    """What a running job sees of the service: telemetry, cancellation,
    deadline, and the shared plan cache."""

    def __init__(
        self,
        handle: "JobHandle",
        service: Optional[Any] = None,
        emitter: Optional[EventEmitter] = None,
    ) -> None:
        self.handle = handle
        self.service = service
        self._emitter = emitter

    @property
    def cache(self):
        return getattr(self.service, "cache", None)

    def checkpoint(self) -> None:
        """Honour cancellation and the deadline; no-op otherwise."""
        if self.handle.cancel_requested:
            raise JobCancelledError(f"job {self.handle.id} cancelled")
        deadline_at = self.handle.deadline_at
        if deadline_at is not None and time.monotonic() > deadline_at:
            raise JobTimeoutError(
                f"job {self.handle.id} exceeded its "
                f"{self.handle.spec.deadline:g}s deadline"
            )

    def emit(
        self, kind: str, t: float = float("nan"), **payload: Any
    ) -> None:
        if self._emitter is not None:
            self._emitter.emit(kind, t=t, **payload)


class JobHandle:
    """The caller's view of one submitted job, on the engine and on the
    cluster alike: its state, timestamps, result and event channel.

    The side that runs the job ends it in two steps: it puts the
    terminal ``state`` event on the channel, then calls :meth:`_finish`,
    the one terminal transition.  So whoever :meth:`wait` wakes finds
    the terminal event already on the closed stream.
    """

    def __init__(self, job_id: str, spec: Any) -> None:
        self.id = job_id
        #: what the job runs: a :class:`JobSpec`, or a cluster request
        #: (anything with a ``kind`` and a ``deadline``)
        self.spec = spec
        self.channel = Channel(
            f"job:{job_id}", capacity=1024, policy=ChannelPolicy.OVERWRITE,
        )
        self.state = JobState.PENDING
        self.result_value: Any = None
        #: the failure: the exception raised, or a cluster worker's
        #: formatted message (an exception does not cross its process)
        self.error: Any = None
        self.attempts = 0
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._done = threading.Event()
        self._cancel = threading.Event()

    # -- lifecycle (engine side) ---------------------------------------
    @property
    def deadline_at(self) -> Optional[float]:
        if self.spec.deadline is None:
            return None
        return self.submitted_at + self.spec.deadline

    def _finish(
        self, state: JobState, result: Any = None, error: Any = None,
    ) -> None:
        """Record the end, close the event stream, wake the waiters."""
        self.state = state
        self.result_value = result
        self.error = error
        self.finished_at = time.monotonic()
        self.channel.close()
        self._done.set()

    # -- caller side ----------------------------------------------------
    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def cancel(self) -> bool:
        """Request cancellation; True unless the job already finished.

        A pending job is dropped when it reaches a worker; a running job
        stops at its next checkpoint.  Either way the worker slot is
        released and the handle reaches ``CANCELLED``.
        """
        if self.state.terminal:
            return False
        self._cancel.set()
        return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Any:
        """The job's result; raises the matching error for non-DONE ends."""
        if not self._done.wait(timeout):
            raise JobTimeoutError(
                f"timed out waiting for job {self.id} "
                f"({self.state.value})"
            )
        if self.state is JobState.DONE:
            return self.result_value
        if self.state is JobState.CANCELLED:
            raise JobCancelledError(f"job {self.id} was cancelled")
        if self.state is JobState.TIMEOUT:
            raise JobTimeoutError(
                f"job {self.id} exceeded its deadline"
            )
        error = self.error
        if isinstance(error, BaseException):
            raise error
        raise JobError(f"job {self.id} failed: {error or 'unknown error'}")

    def stream(self) -> Iterator[TelemetryEvent]:
        """Yield telemetry events until the job's channel closes.

        Safe to call before, during or after execution: :meth:`_finish`
        closes the channel after the terminal ``state`` event, so the
        iterator always terminates after draining what was kept (under
        consumer lag the OVERWRITE policy drops oldest events).
        """
        return iter(self.channel)

    @property
    def wall_time(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.id}, {self.spec.kind}, "
            f"{self.state.value})"
        )


# ----------------------------------------------------------------------
# the attempt loop
# ----------------------------------------------------------------------
def run_attempts(
    spec: "JobSpec", ctx: JobContext, metrics: MetricsRegistry,
) -> Tuple[JobState, Any, Optional[BaseException]]:
    """Run ``spec`` to a terminal state; returns ``(state, result,
    error)``.

    Emits ``running``, then executes the spec, numbering attempts on
    from ``ctx.handle.attempts`` (a migrated cluster job arrives past
    1), so a retried attempt resumes from the checkpoint spool.  A
    :class:`TransientJobError` is retried up to ``spec.retries`` times:
    each retry counts ``jobs.retries``, emits ``retrying`` and sleeps
    ``backoff * 2**k`` first, a sleep that cancellation or the deadline
    ends as CANCELLED or TIMEOUT.  The caller emits the terminal state.
    """
    handle = ctx.handle
    first = handle.attempts or 1
    ctx.emit(STATE, state=JobState.RUNNING.value)
    retry = 0
    while True:
        handle.attempts = first + retry
        try:
            result = spec.execute(ctx)
        except JobCancelledError:
            return JobState.CANCELLED, None, None
        except JobTimeoutError:
            return JobState.TIMEOUT, None, None
        except TransientJobError as exc:
            if retry >= spec.retries:
                return JobState.FAILED, None, exc
            metrics.counter("jobs.retries").inc()
            ctx.emit(
                STATE, state="retrying", attempt=handle.attempts,
                error=str(exc),
            )
        except BaseException as exc:
            return JobState.FAILED, None, exc
        else:
            return JobState.DONE, result, None
        wake_at = time.monotonic() + spec.backoff * (2 ** retry)
        while True:
            now = time.monotonic()
            if handle.cancel_requested:
                return JobState.CANCELLED, None, None
            deadline_at = handle.deadline_at
            if deadline_at is not None and now > deadline_at:
                return JobState.TIMEOUT, None, None
            if now >= wake_at:
                break
            time.sleep(min(0.01, wake_at - now))
        retry += 1


# ----------------------------------------------------------------------
# checkpoint spools and the resume rule
# ----------------------------------------------------------------------
def _checkpoint_manager(
    ctx: JobContext, directory: Optional[str], every_steps: int, keep: int,
):
    """The spool of a checkpointing job (None: checkpointing off)."""
    if directory is None:
        return None
    from repro.resilience import CheckpointManager

    return CheckpointManager(
        directory, every_steps=every_steps, keep=keep,
        metrics=getattr(ctx.service, "metrics", None),
    )


def _resume_source(
    ctx: JobContext, manager, resume_from: Optional[str],
) -> Optional[Tuple[Path, Any]]:
    """``(path, snapshot)`` an attempt resumes from, or None.

    A retried attempt (``handle.attempts > 1``: the last one died with
    a :class:`TransientJobError`, or its worker died) loads the spool's
    newest valid checkpoint; the first attempt loads ``resume_from``.
    """
    if ctx.handle.attempts > 1:
        return None if manager is None else manager.load_latest()
    if resume_from is None:
        return None
    from repro.resilience import decode_snapshot

    source = Path(resume_from)
    return source, decode_snapshot(source.read_bytes())


def _announce_resume(
    ctx: JobContext, source: Path, snapshot: Any, **payload: Any,
) -> None:
    """One RESUMED event and the ``jobs.resumed`` metrics for a
    restored snapshot."""
    ctx.emit(
        RESUMED, t=snapshot.t, step=snapshot.step,
        attempt=ctx.handle.attempts, **payload, path=str(source),
    )
    metrics = getattr(ctx.service, "metrics", None)
    if metrics is not None:
        metrics.counter("jobs.resumed").inc()
        metrics.histogram("jobs.recovered_sim_time").observe(snapshot.t)


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
@dataclass
class JobSpec:
    """Common submission parameters; subclasses define the work."""

    name: str = "job"
    #: wall-clock budget in seconds, measured from submission (queue
    #: wait counts — a request that waited past its deadline is dead on
    #: arrival and reports TIMEOUT without occupying a worker)
    deadline: Optional[float] = None
    #: how many times a TransientJobError is retried
    retries: int = 0
    #: base backoff in seconds; attempt k sleeps ``backoff * 2**k``
    backoff: float = 0.05
    #: content-address of this spec's compile artefact, memoised after
    #: the first execution.  Resubmitting the *same spec object* then
    #: skips straight to the cache lookup — no diagram rebuild, no
    #: flatten, no fingerprint — which is what makes a warm-cache
    #: resubmission an order of magnitude cheaper than a cold one.
    #: Sound because specs are immutable descriptions and factories are
    #: assumed deterministic (retries already rely on exactly that).
    _memo_key: Optional[str] = field(
        default=None, init=False, repr=False, compare=False,
    )
    #: the lint gate's memoised CheckResult for this spec object, same
    #: contract as ``_memo_key``: factories are deterministic, so a
    #: warm resubmission skips the model rebuild and re-lint entirely
    _check_memo: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False,
    )

    kind = "abstract"

    def execute(self, ctx: JobContext) -> Any:  # pragma: no cover
        raise NotImplementedError


@dataclass
class SingleRunResult:
    """Outcome of a :class:`SingleRunJob`."""

    probes: Dict[str, "Trajectory"]
    stats: Dict[str, Any]
    t_final: float


@dataclass
class SingleRunJob(JobSpec):
    """Run one :class:`~repro.core.model.HybridModel` to ``t_end``.

    ``model_factory`` builds a fresh model per attempt (jobs never share
    live runtime objects).  The run is a single uninterrupted
    ``model.run`` — numerically identical to a direct call, even with
    event-restart truncating major steps off-grid — observed through
    the scheduler's passive ``on_major_step`` hook: roughly every
    ``t_end / stream_slices`` of simulated time a PROGRESS event goes
    out with the latest probe values, and every major step passes a
    cancellation/deadline checkpoint.

    Resilience (all optional): with ``checkpoint_dir`` set, a
    :class:`~repro.resilience.CheckpointManager` spools periodic
    snapshots, and a *retried* attempt (``handle.attempts > 1``, i.e.
    the previous attempt died with a :class:`TransientJobError`)
    restores the newest valid checkpoint instead of cold-restarting —
    emitting a RESUMED telemetry event with the recovered sim-time.
    For fixed-step plans the resumed trajectory is bitwise the
    uninterrupted one.  ``resume_from`` restores one explicit snapshot
    file on the *first* attempt (warm-starting from a previous job's
    spool).  ``fault_injector`` arms a deterministic fault plan each
    attempt — the test/chaos hook that exercises exactly this path.
    """

    model_factory: Optional[Callable[[], "HybridModel"]] = None
    t_end: float = 1.0
    sync_interval: float = 0.01
    #: target number of PROGRESS events over the whole run
    stream_slices: int = 10
    validate: bool = True
    #: extra keyword arguments for ``HybridModel.scheduler``
    run_options: Dict[str, Any] = field(default_factory=dict)
    #: spool directory for periodic checkpoints (None: checkpointing off)
    checkpoint_dir: Optional[str] = None
    #: checkpoint every N major steps
    checkpoint_every_steps: int = 100
    #: newest checkpoints retained in the spool
    checkpoint_keep: int = 3
    #: explicit snapshot file to restore before the first attempt
    #: (retried attempts prefer the spool's newest valid checkpoint)
    resume_from: Optional[str] = None
    #: a :class:`~repro.resilience.FaultInjector` armed on every attempt
    fault_injector: Optional[Any] = None
    #: plan-optimizer level (None: the service's ``default_opt_level``)
    opt_level: Optional[int] = None
    #: execution backend for the continuous phase (None: interpreter).
    #: Ineligible models fall back to the interpreter — surfaced as a
    #: BACKEND telemetry event and the ``backend.fallback`` metric,
    #: never a job failure.
    backend: Optional[str] = None
    #: pace the run against the wall clock, in simulated seconds per
    #: wall second (1.0 = real time, 4.0 = 4x faster; None = free-run).
    #: Software-in-the-loop pacing: the trajectory is bitwise the
    #: free-running one — only sleeps are inserted between major steps,
    #: and cancellation/deadline checkpoints keep firing while waiting.
    #: A resumed attempt re-anchors the clock at the recovered sim-time.
    realtime_factor: Optional[float] = None

    kind = "single_run"

    def execute(self, ctx: JobContext) -> SingleRunResult:
        if self.model_factory is None:
            raise JobError("SingleRunJob needs a model_factory")
        if self.t_end <= 0:
            raise JobError(f"non-positive t_end: {self.t_end}")
        pace = self.realtime_factor
        if pace is not None and pace <= 0:
            raise JobError(f"non-positive realtime_factor: {pace}")
        ctx.checkpoint()
        opt = _resolve_opt(ctx, self.opt_level)
        model = self.model_factory()
        if self.validate:
            model.validate(strict=True)
        scheduler = model.scheduler(
            sync_interval=self.sync_interval, opt_config=opt,
            backend=self.backend, **self.run_options,
        )
        emit_dt = self.t_end / max(1, self.stream_slices)
        last_emit = [0.0]
        pace_anchor = [0.0, 0.0]  # (wall, sim) — armed after resume

        def observe(t_now: float) -> None:
            if t_now - last_emit[0] >= emit_dt - 1e-12:
                last_emit[0] = t_now
                ctx.emit(
                    PROGRESS, t=t_now,
                    fraction=min(1.0, t_now / self.t_end),
                    probes={
                        name: float(probe.trajectory.y_final[0])
                        for name, probe in model.probes.items()
                        if len(probe.trajectory)
                    },
                )
            ctx.checkpoint()
            if pace is not None:
                target = pace_anchor[0] + (t_now - pace_anchor[1]) / pace
                while True:
                    now = time.monotonic()
                    if now >= target:
                        break
                    ctx.checkpoint()
                    time.sleep(min(0.02, target - now))

        # hook chain order matters: job observer first, then the
        # checkpoint manager, then the fault injector — so a checkpoint
        # due at the crash step is written before the fault fires
        scheduler.on_major_step = observe
        manager = _checkpoint_manager(
            ctx, self.checkpoint_dir, self.checkpoint_every_steps,
            self.checkpoint_keep,
        )
        if manager is not None:
            manager.attach(scheduler)
        found = _resume_source(ctx, manager, self.resume_from)
        if found is not None:
            from repro.resilience import SnapshotCodec

            source, snapshot = found
            codec = manager.codec if manager is not None else SnapshotCodec()
            codec.restore(scheduler, snapshot)
            if manager is not None:
                manager.note_restore(scheduler)
            _announce_resume(ctx, source, snapshot)
        pace_anchor[0] = time.monotonic()
        pace_anchor[1] = model.time.raw
        if self.fault_injector is not None:
            self.fault_injector.arm(
                scheduler, attempt=max(1, ctx.handle.attempts),
            )
        try:
            scheduler.run(self.t_end)
        except Exception as exc:
            injected = self._reclassify(exc)
            if injected is not None:
                raise injected from exc
            raise
        _record_opt_metrics(
            ctx, getattr(getattr(scheduler, "plan", None),
                         "opt_report", None),
        )
        info = scheduler.backend_info
        _report_backend(
            ctx, info["requested"], info["effective"], info["reason"],
        )
        return SingleRunResult(
            probes={
                name: probe.trajectory
                for name, probe in model.probes.items()
            },
            stats=model.stats(),
            t_final=model.time.raw,
        )

    # -- resilience plumbing -------------------------------------------
    def _reclassify(self, exc: BaseException) -> Optional[Exception]:
        """An injected-divergence fault surfaces as a genuine
        :class:`~repro.solvers.base.SolverError`; reclassify it as the
        (retryable) injected fault so the engine's retry path — and
        therefore checkpoint resume — is what handles it."""
        injector = self.fault_injector
        if injector is None:
            return None
        from repro.solvers.base import SolverError

        if not isinstance(exc, SolverError):
            return None
        if not injector.consume_divergence():
            return None
        from repro.resilience import InjectedDivergence

        return InjectedDivergence(f"injected divergence: {exc}")


@dataclass
class BatchJob(JobSpec):
    """Run a vectorised N-instance batch sweep of one diagram.

    The expensive compile (flatten → plan → emit → render → exec) is
    content-addressed through the service's :class:`~repro.service.
    cache.PlanCache`: the plan fingerprint plus records/sweep-paths/
    solver extras keys a reusable :class:`~repro.core.batch.
    BatchProgram`, so resubmitting a structurally identical diagram
    skips straight to the cheap per-job instantiation.  The run itself
    is chunked; every chunk streams out as a CHUNK telemetry event and
    passes a cancellation/deadline checkpoint.  The chunks are views of
    the run's one record buffer, so the job's result is that buffer,
    not a concatenated copy.

    Resilience: with ``checkpoint_dir`` set, every non-final chunk
    boundary spools a ``kind="batch"`` snapshot — the chunks recorded so
    far plus the simulator's :meth:`~repro.core.batch.BatchSimulator.
    resume_point` — fingerprinted with the same content-address the plan
    cache uses.  A retried attempt reloads the newest valid one,
    replays nothing, and continues mid-run bitwise (the restored chunks
    and the new ones, concatenated, equal an uninterrupted run's).
    """

    diagram_factory: Optional[Callable[[], "Diagram"]] = None
    n: int = 1
    t_end: float = 1.0
    solver: str = "rk4"
    h: float = 1e-3
    records: Optional[List[str]] = None
    sweeps: Optional[Mapping[str, Sequence[float]]] = None
    record_every: int = 1
    #: minor steps per streamed chunk (None: ~8 chunks per run)
    chunk_steps: Optional[int] = None
    x0: Optional[np.ndarray] = None
    #: spool directory for per-chunk checkpoints (None: off)
    checkpoint_dir: Optional[str] = None
    #: newest checkpoints retained in the spool
    checkpoint_keep: int = 3
    #: explicit snapshot file to restore before the first attempt
    resume_from: Optional[str] = None
    #: plan-optimizer level (None: the service's ``default_opt_level``)
    opt_level: Optional[int] = None
    #: requested execution backend.  ``"batch"`` (default) runs the
    #: vectorised NumPy program; ``"native-batch"`` runs the N-instance
    #: C kernel, demoting to the NumPy program when the kernel cannot
    #: be built.  Any other request degrades to ``"batch"``.  Every
    #: demotion emits a BACKEND telemetry event plus the
    #: ``backend.fallback`` metric.
    backend: Optional[str] = None
    #: instance-axis shard count for the native-batch kernel (None: one
    #: per core, capped; ignored by the NumPy backend)
    shards: Optional[int] = None

    kind = "batch"

    def _effective_backend(self) -> str:
        return (
            "native-batch" if self.backend == "native-batch" else "batch"
        )

    def _cache_key(self, plan, opt) -> str:
        from repro.codegen.common import KERNEL_VERSION

        extra = {
            "backend": self._effective_backend(),
            "records": tuple(self.records) if self.records else "<default>",
            "sweep_paths": tuple(sorted(self.sweeps or {})),
            "solver": solver_key(self.solver),
            # the renderers' shape: a checkpoint spooled under another
            # sync form must not resume under this one
            "kernel": KERNEL_VERSION,
        }
        # the requested backend keys separately so its telemetry-bearing
        # artefacts never masquerade as plain batch submissions
        if self.backend is not None and self.backend != "batch":
            extra["backend_requested"] = self.backend
        # distinct opt configurations must never cross-serve artefacts
        if opt is not None and opt.is_active:
            extra["opt"] = opt.cache_token()
        return plan.fingerprint(extra=extra)

    def _fresh_diagram(self, diagram):
        """The diagram for a cache-miss compile: the one already built
        for fingerprinting, or (on a memoised-key miss, e.g. after
        eviction) a fresh one from the factory."""
        if diagram is not None:
            return diagram
        rebuilt = self.diagram_factory()
        rebuilt.finalise()
        return rebuilt

    def execute(self, ctx: JobContext) -> BatchResult:
        if self.diagram_factory is None:
            raise JobError("BatchJob needs a diagram_factory")
        ctx.checkpoint()
        requested = self.backend or "batch"
        native_wanted = requested == "native-batch"
        if not native_wanted and requested != "batch":
            # unknown/scalar backends degrade to the NumPy program;
            # native-batch resolution is reported after the simulator
            # settles (it may itself demote to "batch")
            _report_backend(
                ctx, requested, "batch",
                "batch sweeps run the vectorised NumPy backend",
            )
        opt = _resolve_opt(ctx, self.opt_level)
        sweeps = dict(self.sweeps or {})
        sweep_paths = tuple(sorted(sweeps))
        cache = ctx.cache
        # checkpoint blobs are fingerprinted with the plan-cache key, so
        # a spool enabled without a service cache still needs the key
        need_key = (
            self.checkpoint_dir is not None or self.resume_from is not None
        )
        key = self._memo_key
        diagram = None
        if (cache is not None or need_key) and key is None:
            diagram = self.diagram_factory()
            diagram.finalise()
            plan = FlatNetwork([diagram]).plan()
            key = self._cache_key(plan, opt)
            self._memo_key = key
        if cache is not None:
            compiled: Dict[str, Any] = {}

            def compile_program():
                program = compile_batch_program(
                    self._fresh_diagram(diagram),
                    records=self.records, sweep_paths=sweep_paths,
                    opt_config=opt, native=native_wanted,
                )
                compiled["fresh"] = True
                return program

            program = cache.get_or_compile(key, compile_program)
            if compiled:
                _record_opt_metrics(
                    ctx, getattr(program.plan, "opt_report", None),
                )
            # a native program compiles its NumPy program from the
            # diagram, should the simulator demote
            sim = BatchSimulator(
                self._fresh_diagram(diagram) if program.native else None,
                n=self.n, solver=self.solver, h=self.h,
                records=self.records, sweeps=sweeps, x0=self.x0,
                program=program, opt_config=opt, cache=cache,
                backend="native-batch" if native_wanted else None,
                shards=self.shards,
            )
        else:
            sim = BatchSimulator(
                self._fresh_diagram(diagram), self.n, solver=self.solver,
                h=self.h, records=self.records, sweeps=sweeps, x0=self.x0,
                opt_config=opt, cache=False,
                backend="native-batch" if native_wanted else None,
                shards=self.shards,
            )
            _record_opt_metrics(
                ctx, getattr(sim.plan, "opt_report", None),
            )
        if requested in ("batch", "native-batch"):
            _report_backend(
                ctx, requested, sim.backend_name,
                sim.backend_fallback_reason,
            )
        total_steps = loop.step_count(0.0, self.t_end, self.h)
        chunk_steps = self.chunk_steps
        if chunk_steps is None:
            chunk_steps = max(1, total_steps // 8)
        # writes happen explicitly at chunk boundaries; the manager
        # provides the atomic spool and retention
        manager = _checkpoint_manager(
            ctx, self.checkpoint_dir, 1, self.checkpoint_keep,
        )
        chunks: List[BatchChunk] = []
        resume_point = None
        found = _resume_source(ctx, manager, self.resume_from)
        if found is not None:
            source, snapshot = found
            chunks, resume_point = self._unpack_snapshot(
                snapshot, key, chunk_steps,
            )
            _announce_resume(ctx, source, snapshot, chunks=len(chunks))
        for chunk in sim.run_chunked(
            self.t_end, record_every=self.record_every,
            chunk_steps=chunk_steps, resume=resume_point,
        ):
            chunks.append(chunk)
            ctx.emit(
                CHUNK, t=chunk.t_now,
                rows=int(len(chunk.t)),
                steps=int(chunk.steps),
                final=bool(chunk.final),
                t_values=chunk.t,
                series=chunk.series,
            )
            if not chunk.final:
                ctx.checkpoint()
                if manager is not None:
                    manager.write(
                        self._pack_snapshot(key, chunks, chunk, chunk_steps)
                    )
        return merge_chunks(chunks, sim.n)

    # -- resilience plumbing -------------------------------------------
    def _pack_snapshot(self, key, chunks, chunk, chunk_steps):
        from repro.resilience import SNAPSHOT_VERSION, Snapshot

        return Snapshot(
            version=SNAPSHOT_VERSION,
            fingerprint=key,
            t=float(chunk.t_now),
            step=int(chunk.steps),
            kind="batch",
            payload={
                "h": float(self.h),
                "t_end": float(self.t_end),
                "n": int(self.n),
                "record_every": int(self.record_every),
                "chunk_steps": int(chunk_steps),
                "chunks": [
                    {
                        "t": c.t,
                        "series": dict(c.series),
                        "t_now": float(c.t_now),
                        "steps": int(c.steps),
                    }
                    for c in chunks
                ],
                "resume": dict(chunk.resume),
            },
        )

    def _unpack_snapshot(self, snapshot, key, chunk_steps):
        from repro.resilience import FingerprintMismatchError, SnapshotError

        if snapshot.kind != "batch":
            raise SnapshotError(
                f"snapshot kind {snapshot.kind!r} is not a batch checkpoint"
            )
        if key is not None and snapshot.fingerprint != key:
            raise FingerprintMismatchError(
                "batch checkpoint belongs to a different compiled plan: "
                f"{snapshot.fingerprint[:16]}… != {key[:16]}…"
            )
        payload = snapshot.payload
        for name, want in (
            ("h", float(self.h)),
            ("t_end", float(self.t_end)),
            ("n", int(self.n)),
            ("record_every", int(self.record_every)),
            ("chunk_steps", int(chunk_steps)),
        ):
            if payload.get(name) != want:
                raise SnapshotError(
                    f"batch checkpoint {name} mismatch: "
                    f"{payload.get(name)!r} != {want!r}"
                )
        chunks = [
            BatchChunk(
                t=np.asarray(c["t"], dtype=float),
                series={
                    label: np.asarray(values)
                    for label, values in c["series"].items()
                },
                t_now=float(c["t_now"]),
                steps=int(c["steps"]),
                final=False,
            )
            for c in payload["chunks"]
        ]
        return chunks, payload["resume"]


@dataclass
class CodegenJob(JobSpec):
    """Generate standalone source for a diagram (Python or C).

    Generated source is pure content — same diagram, same text — so it
    caches under the plan fingerprint plus the target language.
    """

    diagram_factory: Optional[Callable[[], "Diagram"]] = None
    lang: str = "python"
    records: Optional[List[str]] = None
    t_end: float = 10.0
    h: float = 1e-3
    #: plan-optimizer level (None: the service's ``default_opt_level``)
    opt_level: Optional[int] = None

    kind = "codegen"

    def execute(self, ctx: JobContext) -> str:
        if self.diagram_factory is None:
            raise JobError("CodegenJob needs a diagram_factory")
        if self.lang not in ("python", "c"):
            raise JobError(
                f"unknown codegen target {self.lang!r}; use 'python' or 'c'"
            )
        ctx.checkpoint()
        opt = _resolve_opt(ctx, self.opt_level)
        from repro.codegen import generate_c, generate_python

        def compile_source(diagram=None) -> str:
            if diagram is None:
                diagram = self.diagram_factory()
            if self.lang == "python":
                return generate_python(
                    diagram, records=self.records, default_h=self.h,
                    opt_config=opt,
                )
            return generate_c(
                diagram, records=self.records, default_h=self.h,
                t_end=self.t_end, opt_config=opt,
            )

        cache = ctx.cache
        if cache is None:
            return compile_source()
        key = self._memo_key
        if key is None:
            diagram = self.diagram_factory()
            diagram.finalise()
            plan = FlatNetwork([diagram]).plan()
            extra = {
                "backend": f"codegen:{self.lang}",
                "records": (
                    tuple(self.records) if self.records else "<default>"
                ),
                "t_end": self.t_end,
                "h": self.h,
            }
            if opt.is_active:
                extra["opt"] = opt.cache_token()
            key = plan.fingerprint(extra=extra)
            self._memo_key = key
            return cache.get_or_compile(
                key, lambda: compile_source(diagram),
            )
        return cache.get_or_compile(key, compile_source)
