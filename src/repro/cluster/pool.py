"""The cluster coordinator: a work-stealing pool of worker processes.

:class:`WorkerPool` owns N OS processes (spawned, never forked — the
coordinator runs threads, and fork+threads is a deadlock lottery), one
shared :class:`~repro.cluster.store.ArtifactStore`, and the scheduling
state that ties them together:

* **Per-worker deques + stealing.**  Every admitted job is appended to
  the shortest worker deque.  A worker pulls by sending READY; the
  coordinator pops the head of that worker's own deque, and when it is
  empty steals from the *tail* of the longest victim deque — the
  classic split: owners drain LIFO-adjacent work, thieves take the
  oldest (coldest) item, and ``cluster.steals`` counts every theft.

* **Admission control.**  :meth:`submit` sheds load *before* it enters
  the system: a bounded global queue, a per-client in-flight quota, and
  a deadline-feasibility gate that predicts completion from an EMA of
  recent DONE jobs' wall times and rejects jobs that would blow their
  deadline while waiting.  Rejection is an exception
  (:class:`ClusterRejected`) with a machine-readable reason, mirrored
  in ``cluster.rejected.*`` counters.

* **Live migration.**  A monitor thread watches worker liveness.  When
  a worker dies (crash or SIGKILL) holding a job, the coordinator
  re-enqueues the envelope with ``attempt + 1`` — the receiving worker
  resumes from the newest CRC-valid checkpoint in the job's spool in
  the shared store, bitwise-identically for fixed-step plans.  Dead
  workers are respawned to keep capacity constant.

Telemetry from workers is forwarded live onto each job's coordinator
channel (the same :class:`~repro.core.channel.Channel` the HTTP layer
streams) and closed with the job's terminal ``state`` event, and each
finished job's worker-side metrics dump is merged into the pool
registry.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
from multiprocessing import connection as mp_connection
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

from repro.cluster.requests import ClusterError, ClusterJobRequest, ClusterRejected
from repro.cluster.store import ArtifactStore
from repro.cluster.worker import (
    MSG_DONE, MSG_EVENT, MSG_JOB, MSG_READY, MSG_STARTED, MSG_STOP,
    JobEnvelope, result_from_wire, worker_main,
)
from repro.service.admission import DeadlineAdmission
from repro.service.jobs import JobHandle, JobState
from repro.service import telemetry
from repro.service.telemetry import MetricsRegistry, TelemetryEvent


#: stop respawning one worker slot after this many deaths: a worker
#: that cannot even boot would otherwise respawn in a tight loop
MAX_WORKER_DEATHS = 16


@dataclass
class ClusterConfig:
    """Pool sizing and admission-control policy."""

    workers: int = 4
    #: bound on jobs queued (admitted, not yet dispatched); 0: unbounded
    queue_limit: int = 256
    #: per-client cap on jobs in flight (queued + running); 0: unbounded
    per_client_limit: int = 64
    #: migration budget per job — re-dispatches after worker deaths
    max_migrations: int = 3
    default_opt_level: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ClusterError(f"need at least one worker: {self.workers}")


class ClusterJobHandle(JobHandle):
    """The coordinator-side view of one submitted cluster job: a
    :class:`~repro.service.jobs.JobHandle` over its request, plus where
    it runs.  ``error`` is the worker's formatted message."""

    def __init__(
        self, job_id: str, request: ClusterJobRequest, pool: "WorkerPool",
    ) -> None:
        super().__init__(job_id, request)
        self.request = request
        self.migrations = 0
        self.worker: Optional[int] = None
        self._pool = pool

    def cancel(self) -> bool:
        """Cancel through the pool: a queued job ends CANCELLED at once,
        a running one when its worker reads the cancel cell at the next
        checkpoint.  False once the job is terminal."""
        return self._pool.cancel(self.id)

    def status(self) -> Dict[str, Any]:
        """A JSON-shaped snapshot (what ``GET /jobs/<id>`` serves)."""
        return {
            "id": self.id,
            "name": self.request.name or None,
            "kind": self.request.kind,
            "client": self.request.client,
            "state": self.state.value,
            "attempts": self.attempts,
            "migrations": self.migrations,
            "worker": self.worker,
            "error": self.error,
            "wall": (
                None if self.finished_at is None
                else self.finished_at - self.submitted_at
            ),
        }


@dataclass
class _WorkerSlot:
    """Everything the coordinator tracks about one worker process."""

    worker_id: int
    process: Any
    feed: Any
    cancel_cell: Any
    #: coordinator end of the worker's private report pipe (None once
    #: the pipe turned out dead and was discarded)
    conn: Any = None
    #: job currently dispatched to this worker (None: idle/awaiting feed)
    current: Optional[str] = None
    #: True once the worker sent READY and is blocked on its feed queue
    hungry: bool = False
    deaths: int = 0
    jobs_done: int = 0
    deque: Deque[JobEnvelope] = field(default_factory=collections.deque)


class WorkerPool:
    """N worker processes, one shared store, work stealing, migration."""

    def __init__(
        self,
        store_root,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.store = ArtifactStore(Path(store_root))
        self.metrics = MetricsRegistry()
        self._ctx = mp.get_context("spawn")
        self._lock = threading.RLock()
        self._jobs: Dict[str, ClusterJobHandle] = {}
        self._envelopes: Dict[str, JobEnvelope] = {}
        #: client -> its jobs admitted and not yet finished
        self._in_flight: Dict[str, int] = {}
        self._job_seq = itertools.count(1)
        self._epoch_seq = itertools.count(1)
        # the shared deadline-admission predicate (same code path the
        # in-process JobEngine uses), calibrated per job kind from the
        # wall time of every job a worker reports DONE
        self.admission = DeadlineAdmission()
        self._stop = threading.Event()
        self.steals = 0
        self.migrations_total = 0
        self._slots: List[_WorkerSlot] = [
            self._spawn_slot(wid) for wid in range(self.config.workers)
        ]
        self._inbox_thread = threading.Thread(
            target=self._inbox_loop, name="cluster-inbox", daemon=True,
        )
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True,
        )
        self._inbox_thread.start()
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_slot(
        self, worker_id: int, old: Optional[_WorkerSlot] = None
    ) -> _WorkerSlot:
        feed = self._ctx.Queue()
        cancel_cell = self._ctx.Value("q", 0, lock=False)
        # one private report pipe per worker — a shared queue's write
        # lock is a cross-process semaphore a SIGKILLed worker could
        # take to its grave, wedging everyone else's reports
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id, feed, send_conn, cancel_cell,
                str(self.store.root), self.config.default_opt_level,
            ),
            name=f"repro-cluster-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        send_conn.close()  # worker holds the write end now
        slot = _WorkerSlot(
            worker_id, process, feed, cancel_cell, conn=recv_conn,
        )
        if old is not None:
            slot.deaths = old.deaths
            slot.jobs_done = old.jobs_done
            slot.deque = old.deque  # queued work survives the death
        return slot

    def kill_worker(self, worker_id: int, sig: int = signal.SIGKILL) -> int:
        """Hard-kill one worker process (testing/chaos hook).

        Returns the killed PID.  The monitor notices the death, migrates
        the worker's in-flight job and respawns a replacement.
        """
        slot = self._slots[worker_id]
        pid = slot.process.pid
        if pid is None:
            raise ClusterError(f"worker {worker_id} has no process")
        os.kill(pid, sig)
        return pid

    # ------------------------------------------------------------------
    # submission + admission control
    # ------------------------------------------------------------------
    def submit(self, request: ClusterJobRequest) -> ClusterJobHandle:
        """Admit one request, or shed it with :class:`ClusterRejected`."""
        if self._stop.is_set():
            raise ClusterError("pool is shut down")
        request.validate()
        with self._lock:
            decision = self._admit(request)
            job_id = f"cj-{next(self._job_seq):06d}"
            handle = ClusterJobHandle(job_id, request, self)
            envelope = JobEnvelope(
                job_id=job_id, request=request, attempt=1,
                epoch=next(self._epoch_seq),
                deadline_remaining=request.deadline,
            )
            self._jobs[job_id] = handle
            self._envelopes[job_id] = envelope
            client = request.client
            self._in_flight[client] = self._in_flight.get(client, 0) + 1
            self._enqueue(envelope)
            self.metrics.counter("cluster.submitted").inc()
            # coordinator-side admission event (seq -1, like MIGRATED)
            # so the decision is visible on the HTTP telemetry stream
            handle.channel.push(TelemetryEvent(
                kind=telemetry.ADMISSION, job_id=job_id, seq=-1,
                t=float("nan"), payload=decision.as_payload(),
            ))
            self._feed_hungry()
        return handle

    def _admit(self, request: ClusterJobRequest):
        """Queue-shedding gates; caller holds the lock.  Returns the
        :class:`~repro.service.admission.AdmissionDecision`."""
        queued = sum(len(slot.deque) for slot in self._slots)
        limit = self.config.queue_limit
        if limit and queued >= limit:
            self.metrics.counter("cluster.rejected.queue_full").inc()
            raise ClusterRejected(
                "queue_full",
                f"global queue at capacity ({queued}/{limit})",
            )
        per_client = self.config.per_client_limit
        if per_client:
            in_flight = self._in_flight.get(request.client, 0)
            if in_flight >= per_client:
                self.metrics.counter("cluster.rejected.client_quota").inc()
                raise ClusterRejected(
                    "client_quota",
                    f"client {request.client!r} has {in_flight} jobs in "
                    f"flight (limit {per_client})",
                )
        decision = self.admission.evaluate(
            request.kind, request.deadline,
            queued=queued, workers=len(self._slots),
        )
        if not decision.admitted:
            self.metrics.counter(
                "cluster.rejected.deadline_infeasible"
            ).inc()
            raise ClusterRejected(
                "deadline_infeasible",
                f"predicted completion "
                f"{decision.predicted_completion:.3f}s exceeds the "
                f"{request.deadline:g}s deadline",
            )
        return decision

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; False once it is terminal."""
        with self._lock:
            handle = self._jobs.get(job_id)
            if handle is None or handle.state.terminal:
                return False
            if handle.state is JobState.PENDING:
                for slot in self._slots:
                    for envelope in list(slot.deque):
                        if envelope.job_id == job_id:
                            slot.deque.remove(envelope)
                self._finish_job(handle, JobState.CANCELLED)
                return True
            # running: point the worker's cancel cell at the job's epoch
            envelope = self._envelopes.get(job_id)
            if envelope is not None and handle.worker is not None:
                self._slots[handle.worker].cancel_cell.value = envelope.epoch
            return True

    # ------------------------------------------------------------------
    # scheduling: deques, stealing, feeding
    # ------------------------------------------------------------------
    def _enqueue(self, envelope: JobEnvelope) -> None:
        """Append to the shortest deque; caller holds the lock."""
        slot = min(self._slots, key=lambda s: len(s.deque))
        slot.deque.append(envelope)

    def _take_work_for(self, slot: _WorkerSlot) -> Optional[JobEnvelope]:
        """Own deque head, else steal the longest victim's tail."""
        if slot.deque:
            return slot.deque.popleft()
        victim = max(self._slots, key=lambda s: len(s.deque))
        if victim is slot or not victim.deque:
            return None
        self.steals += 1
        self.metrics.counter("cluster.steals").inc()
        return victim.deque.pop()

    def _feed_hungry(self) -> None:
        """Dispatch to every hungry worker with work available;
        caller holds the lock."""
        for slot in self._slots:
            if not slot.hungry:
                continue
            self._feed_one(slot)

    def _feed_one(self, slot: _WorkerSlot) -> None:
        while True:
            envelope = self._take_work_for(slot)
            if envelope is None:
                return
            handle = self._jobs.get(envelope.job_id)
            if handle is None or handle.state.terminal:
                continue  # cancelled while queued; take the next one
            deadline_at = handle.deadline_at
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    self._finish_job(handle, JobState.TIMEOUT)
                    self.metrics.counter("cluster.deadline_missed").inc()
                    continue
                envelope.deadline_remaining = remaining
            slot.current = envelope.job_id
            slot.hungry = False
            handle.worker = slot.worker_id
            handle.state = JobState.RUNNING
            if handle.started_at is None:
                handle.started_at = time.monotonic()
            slot.feed.put((MSG_JOB, envelope))
            return

    # ------------------------------------------------------------------
    # inbox: worker -> coordinator traffic (one pipe per worker)
    # ------------------------------------------------------------------
    def _inbox_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                by_conn = {
                    slot.conn: slot
                    for slot in self._slots
                    if slot.conn is not None
                }
            if not by_conn:
                time.sleep(0.05)
                continue
            try:
                ready = mp_connection.wait(list(by_conn), timeout=0.1)
            except OSError:
                continue
            for conn in ready:
                try:
                    message = conn.recv()
                except Exception:
                    # EOF or a write the worker died in the middle of —
                    # only this worker's pipe is affected; the monitor
                    # owns the death itself
                    self._discard_conn(by_conn[conn], conn)
                    continue
                self._handle_message(message)

    def _discard_conn(self, slot: _WorkerSlot, conn: Any) -> None:
        try:
            conn.close()
        except OSError:
            pass
        with self._lock:
            if slot.conn is conn:
                slot.conn = None

    def _handle_message(self, message) -> None:
        tag = message[0]
        if tag == MSG_READY:
            with self._lock:
                slot = self._slots[message[1]]
                slot.hungry = True
                self._feed_one(slot)
        elif tag == MSG_STARTED:
            __, worker_id, job_id, attempt = message
            with self._lock:
                handle = self._jobs.get(job_id)
                if handle is not None:
                    handle.attempts = attempt
        elif tag == MSG_EVENT:
            __, worker_id, job_id, event = message
            handle = self._jobs.get(job_id)
            if handle is not None and not handle.state.terminal:
                try:
                    handle.channel.push(event)
                except Exception:
                    pass
        elif tag == MSG_DONE:
            self._handle_done(message)

    def _handle_done(self, message) -> None:
        (__, worker_id, job_id, state_value, result_bytes, error,
         metrics_dump, wall) = message
        try:
            result = result_from_wire(result_bytes)
        except Exception as exc:
            state_value, result, error = (
                JobState.FAILED.value, None, f"result decode failed: {exc}"
            )
        with self._lock:
            slot = self._slots[worker_id]
            if slot.current == job_id:
                slot.current = None
            slot.jobs_done += 1
            handle = self._jobs.get(job_id)
            if handle is None or handle.state.terminal:
                return  # late DONE from a worker we already gave up on
            state = JobState(state_value)
            if state is JobState.DONE:
                # calibrate on completed work only, as the engine does:
                # a failed or cancelled job's wall time is not its cost
                self.admission.cost_model.observe(handle.request.kind, wall)
                self.metrics.histogram("cluster.job_wall").observe(wall)
            self.metrics.merge(metrics_dump)
            self._finish_job(handle, state, result, error)

    def _finish_job(
        self,
        handle: ClusterJobHandle,
        state: JobState,
        result: Any = None,
        error: Optional[str] = None,
    ) -> None:
        """The pool's one terminal path; caller holds the lock."""
        if handle.state.terminal:
            return  # finished already; its client was counted down then
        client = handle.request.client
        if self._in_flight[client] > 1:
            self._in_flight[client] -= 1
        else:
            del self._in_flight[client]
        self._envelopes.pop(handle.id, None)
        # the terminal state ends the stream, as the engine's does (seq
        # -1: a coordinator-side event, like ADMISSION); then the
        # handle's one terminal transition closes it
        handle.channel.push(TelemetryEvent(
            kind=telemetry.STATE, job_id=handle.id, seq=-1, t=float("nan"),
            payload={"state": state.value, "error": error},
        ))
        handle._finish(state, result, error)
        self.metrics.counter(f"cluster.finished.{state.value}").inc()

    # ------------------------------------------------------------------
    # monitor: worker deaths -> migration + respawn
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(0.05):
            for slot in list(self._slots):
                if slot.process.is_alive() or self._stop.is_set():
                    continue
                self._handle_death(slot)

    def _handle_death(self, slot: _WorkerSlot) -> None:
        # death closed the worker's write end, so the inbox thread will
        # drain every buffered report in order and discard the conn at
        # EOF — wait for that before deciding migration, because a
        # buffered DONE means there is nothing to migrate
        deadline = time.monotonic() + 1.0
        while slot.conn is not None and time.monotonic() < deadline:
            if self._stop.is_set():
                break
            time.sleep(0.005)
        # a dead worker spools nothing more: read its job's newest
        # checkpoint here, not under the lock dispatch and completion
        # wait on
        read_for = slot.current
        latest = (
            self.store.latest_checkpoint(read_for)
            if read_for is not None else None
        )
        with self._lock:
            if self._slots[slot.worker_id] is not slot:
                return  # already replaced
            if slot.conn is not None:
                self._discard_conn(slot, slot.conn)
            slot.deaths += 1
            self.metrics.counter("cluster.worker_deaths").inc()
            job_id = slot.current
            slot.current = None
            slot.hungry = False
            if job_id is not None:
                if job_id != read_for:
                    latest = self.store.latest_checkpoint(job_id)
                self._migrate(job_id, slot.worker_id, latest)
            if not self._stop.is_set() and slot.deaths <= MAX_WORKER_DEATHS:
                self._slots[slot.worker_id] = self._spawn_slot(
                    slot.worker_id, old=slot,
                )

    def _migrate(
        self, job_id: str, dead_worker: int, latest: Optional[tuple],
    ) -> None:
        """Re-dispatch a dead worker's job; caller holds the lock.

        ``latest`` is the job's newest valid checkpoint (``(path,
        snapshot)`` or None), where the next attempt resumes.
        """
        handle = self._jobs.get(job_id)
        envelope = self._envelopes.get(job_id)
        if handle is None or handle.state.terminal or envelope is None:
            return
        if handle.migrations >= self.config.max_migrations:
            self._finish_job(
                handle, JobState.FAILED,
                error=(
                    f"worker died and the migration budget "
                    f"({self.config.max_migrations}) is exhausted"
                ),
            )
            return
        handle.migrations += 1
        handle.state = JobState.PENDING
        handle.worker = None
        self.migrations_total += 1
        self.metrics.counter("cluster.migrations").inc()
        payload = {
            "from_worker": dead_worker,
            "migration": handle.migrations,
            "fingerprint": None,
            "resume_step": None,
        }
        if latest is not None:
            payload["fingerprint"] = latest[1].fingerprint
            payload["resume_step"] = latest[1].step
        handle.channel.push(TelemetryEvent(
            kind=telemetry.MIGRATED, job_id=job_id, seq=-1, t=float("nan"),
            payload=payload,
        ))
        replacement = JobEnvelope(
            job_id=job_id, request=envelope.request,
            attempt=envelope.attempt + 1, epoch=next(self._epoch_seq),
            deadline_remaining=envelope.deadline_remaining,
            submitted_at=envelope.submitted_at,
        )
        self._envelopes[job_id] = replacement
        self._enqueue(replacement)
        self._feed_hungry()

    # ------------------------------------------------------------------
    # introspection + lifecycle
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[ClusterJobHandle]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[ClusterJobHandle]:
        with self._lock:
            return list(self._jobs.values())

    def status(self) -> Dict[str, Any]:
        """A JSON-shaped pool snapshot (what ``GET /status`` serves)."""
        # the store listing grows with every job the store has held:
        # take it outside the lock that dispatch, completion and
        # migration wait on
        store = self.store.stats()
        with self._lock:
            states: Dict[str, int] = {}
            for handle in self._jobs.values():
                states[handle.state.value] = states.get(
                    handle.state.value, 0
                ) + 1
            return {
                "workers": [
                    {
                        "id": slot.worker_id,
                        "pid": slot.process.pid,
                        "alive": slot.process.is_alive(),
                        "current": slot.current,
                        "queued": len(slot.deque),
                        "jobs_done": slot.jobs_done,
                        "deaths": slot.deaths,
                    }
                    for slot in self._slots
                ],
                "jobs": states,
                "queued": sum(len(s.deque) for s in self._slots),
                "steals": self.steals,
                "migrations": self.migrations_total,
                "cost_model": self.admission.cost_model.snapshot(),
                "store": store,
            }

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until every submitted job is terminal (True) or the
        timeout lapses (False)."""
        deadline = time.monotonic() + timeout
        for handle in self.jobs():
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not handle.wait(remaining):
                return False
        return True

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop workers, cancel queued jobs, join the pool threads."""
        if self._stop.is_set():
            return
        self._stop.set()
        with self._lock:
            for slot in self._slots:
                slot.deque.clear()
            for handle in self._jobs.values():
                if not handle.state.terminal:
                    self._finish_job(handle, JobState.CANCELLED)
        for slot in self._slots:
            try:
                slot.feed.put((MSG_STOP,))
            except Exception:
                pass
        deadline = time.monotonic() + timeout
        for slot in self._slots:
            slot.process.join(max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(1.0)
        self._inbox_thread.join(timeout=2.0)
        self._monitor_thread.join(timeout=2.0)
        for slot in self._slots:
            if slot.conn is not None:
                self._discard_conn(slot, slot.conn)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(workers={len(self._slots)}, "
            f"store={str(self.store.root)!r})"
        )
