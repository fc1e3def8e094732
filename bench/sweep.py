"""``sweep``: one client submits batch sweeps of the 204-block loop.

Closed loop, one client, ``SimulationService(workers=2)``.  Every job is
a fresh :class:`~repro.BatchJob` of the same structure on the
``native-batch`` backend (N=256, rk4, h=2e-3, 10 s simulated, ``plant.out``
recorded every 10 steps) with new seeded values for the swept gain, so
the plan cache and the native artifact cache hit after the first job
while the diagram is still rebuilt, flattened and fingerprinted per job.
Most of the time goes to the N-instance C kernel and chunk handling.

Gate: every 50th job is re-run after the window on the NumPy ``batch``
backend, which must match it bitwise (O0) over the first 0.18 s of every
instance; any job that ran on another backend than ``native-batch`` is a
failure.
"""

from __future__ import annotations

import time

import numpy as np

from bench import models
from bench.common import WARMUP, Measured, Op, closed_loop, op_span
from repro import BatchJob, SimulationService
from repro.core.batch import BatchSimulator

N = 256
H = 2e-3
T_END = 10.0
RECORD_EVERY = 10
SWEEP = "pad0.k"
CHECK_EVERY = 50
#: the NumPy cross-check integrates 100 steps and compares the 10 rows
#: recorded before its (shortened) last step
CHECK_T = 0.2
CHECK_ROWS = 10


class Sweep:
    name = "sweep"
    tail = 95

    def __init__(self, seed: int, smoke: bool, work, corrupt_reference):
        self.seed = seed
        #: the input stream continues across measured windows
        self.next_index = 0
        self.t_end = T_END / 20 if smoke else T_END
        self.service = None

    def values(self, index: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, index])
        return rng.uniform(0.9, 1.1, N)

    def spec(self, index: int) -> BatchJob:
        return BatchJob(
            name=f"sweep-{index}", diagram_factory=models.pid_loop, n=N,
            t_end=self.t_end, solver="rk4", h=H, records=["plant.out"],
            record_every=RECORD_EVERY, sweeps={SWEEP: self.values(index)},
            backend="native-batch",
        )

    def setup(self) -> None:
        self.service = SimulationService(workers=2)
        self.service.submit(self.spec(WARMUP)).result(timeout=120)

    def _run_op(self, index: int, tracer) -> Op:
        op = Op(index=index, kind="batch", due=time.monotonic())
        op.start = op.due
        try:
            with op_span(tracer):
                handle = self.service.submit(self.spec(index))
                result = handle.result(timeout=120)
        except Exception as exc:  # a failed job is counted, not fatal
            op.end = time.monotonic()
            op.fail(f"{type(exc).__name__}: {exc}")
            return op
        op.end = time.monotonic()
        op.queue_s = handle.started_at - handle.submitted_at
        op.exec_s = handle.finished_at - handle.started_at
        # the worker thread's spans record the execution
        op.unspanned_s = op.queue_s
        if tracer is not None:
            op.info["service.telemetry.chunk_events"] = sum(
                1 for event in handle.stream() if event.kind == "chunk"
            )
        backend = result.stats.get("backend")
        if backend != "native-batch":
            op.fail(f"ran on {backend or 'batch'}, not native-batch")
        if index % CHECK_EVERY == 0:
            op.check = (
                result.t[:CHECK_ROWS].copy(),
                result.series["plant.out"][:CHECK_ROWS].copy(),
            )
        op.info["inst_steps"] = N * result.stats["minor_steps"]
        return op

    def measure(self, seconds: float, tracer=None) -> Measured:
        started = time.monotonic()
        ops = closed_loop(
            1, seconds, lambda i: self._run_op(i, tracer), self.next_index,
        )
        self.next_index += len(ops)
        wall = time.monotonic() - started
        steps = sum(op.info.get("inst_steps", 0) for op in ops if op.ok)
        return Measured(ops, wall, {"sweep.inst_steps_per_s": steps / wall})

    def verify(self, ops) -> None:
        for op in ops:
            if op.check is None:
                continue
            reference = BatchSimulator(
                models.pid_loop(), n=N, solver="rk4", h=H,
                records=["plant.out"], sweeps={SWEEP: self.values(op.index)},
            ).run(CHECK_T, record_every=RECORD_EVERY)
            times, values = op.check
            same = (
                np.array_equal(reference.t[:CHECK_ROWS], times)
                and np.array_equal(
                    reference.series["plant.out"][:CHECK_ROWS], values,
                )
            )
            if not same:
                op.fail("native-batch differs from the NumPy batch program")
            op.check = None

    def counters(self):
        return self.service.metrics_snapshot()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
