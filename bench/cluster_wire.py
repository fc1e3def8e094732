"""``cluster-wire``: HTTP requests into a two-worker process pool.

Closed loop, two client threads, each submitting a request over HTTP to
a ``ClusterHTTPServer`` in front of ``WorkerPool(workers=2)`` and then
blocking on its result.  The mix, in equal parts:

* ``servo``: ``servo_farm`` on ``native-batch`` at N=32, checkpointed;
* ``cruise``: ``cruise`` single runs, checkpointed;
* ``pendulum``: a NumPy ``pendulum`` batch at N=64, not checkpointed.

This exercises the wire, pool dispatch and stealing, worker IPC, the
shared store's checkpoint spools and the small-N shard overhead of the
native kernel.  Worker processes are spawned fresh and untraced; the
cluster is measured from the client and coordinator side.

Gates, after the window: the CRC-32 digests in every result summary
must equal an in-process run of the same request, and every request
must have run on the backend it asked for (read from the BACKEND event
the worker forwards to the coordinator).
"""

from __future__ import annotations

import json
import random
import time

from bench.common import (
    WARMUP, Measured, Op, closed_loop, corrupt, op_span,
)
from repro.cluster import (
    ClusterClient, ClusterConfig, ClusterHTTPServer, ClusterJobRequest,
    WorkerPool,
)
from repro.cluster import models as cluster_models
from repro.cluster.http import summarise_result
from repro.core.batch import BatchSimulator
from repro.service import SingleRunResult

CLIENTS = 2
WORKERS = 2
KINDS = ("servo", "cruise", "pendulum")
VARIANTS = 3
RECORD_EVERY = 100
WANT_BACKEND = {
    "servo": "native-batch", "cruise": "interpreter", "pendulum": "batch",
}


class ClusterWire:
    name = "cluster-wire"
    tail = 95

    def __init__(self, seed: int, smoke: bool, work, corrupt_reference):
        self.seed = seed
        #: the input stream continues across measured windows
        self.next_index = 0
        self.store_root = work / "store"
        self.corrupt_reference = corrupt_reference
        self.pool = None
        self.server = None
        self.client = None
        rng = random.Random(f"{seed}:variants")
        self.params = {
            "servo": [round(rng.uniform(6.0, 10.0), 3)
                      for __ in range(VARIANTS)],
            "cruise": [round(rng.uniform(18.0, 30.0), 3)
                       for __ in range(VARIANTS)],
            "pendulum": [round(rng.uniform(30.0, 40.0), 3)
                         for __ in range(VARIANTS)],
        }

    @staticmethod
    def _gains(base: float, n: int):
        return [round(base + 4.0 * i / (n - 1) - 2.0, 6) for i in range(n)]

    def request(self, index: int):
        """``(kind, variant, request)`` of input ``index``."""
        kind = KINDS[index % len(KINDS)]
        variant = random.Random(f"{self.seed}:request:{index}").randrange(
            VARIANTS,
        )
        value = self.params[kind][variant]
        name = f"{kind}-{index}"
        if kind == "servo":
            request = ClusterJobRequest(
                kind="batch", model="servo_farm", name=name,
                params={
                    "n": 32, "t_end": 2.0, "h": 1e-3,
                    "records": ["servo.out"],
                    "record_every": RECORD_EVERY,
                    "sweeps": {"pid.kp": self._gains(value, 32)},
                    "backend": "native-batch",
                },
                checkpoint=True,
            )
        elif kind == "cruise":
            request = ClusterJobRequest(
                kind="single_run", model="cruise", name=name,
                params={
                    "t_end": 2.0, "sync_interval": 0.01,
                    "checkpoint_every_steps": 50,
                },
                model_args={"setpoint": value}, checkpoint=True,
            )
        else:
            request = ClusterJobRequest(
                kind="batch", model="pendulum", name=name,
                params={
                    "n": 64, "t_end": 1.0, "h": 1e-3,
                    "records": ["pend.out"],
                    "record_every": RECORD_EVERY,
                    "sweeps": {"pid.kp": self._gains(value, 64)},
                },
                checkpoint=False,
            )
        return kind, variant, request

    def setup(self) -> None:
        self.pool = WorkerPool(
            str(self.store_root), ClusterConfig(workers=WORKERS),
        )
        self.server = ClusterHTTPServer(self.pool).start()
        self.client = ClusterClient(self.server.url)
        self.client.wait_ready()
        # two of each kind in flight at once, so both workers boot and
        # build their programs before the window opens
        warm = []
        index = WARMUP
        while len(warm) < 2 * len(KINDS):
            kind, __, request = self.request(index)
            index += 1
            if sum(1 for k in warm if k[0] == kind) < 2:
                warm.append((kind, self.client.submit(request)))
        for __, job_id in warm:
            self.client.result(job_id, timeout=120)

    def _run_op(self, index: int, tracer) -> Op:
        kind, variant, request = self.request(index)
        op = Op(index=index, kind=kind, due=time.monotonic())
        op.start = op.due
        try:
            with op_span(tracer):
                job_id = self.client.submit(request)
                submitted = time.monotonic()
                summary = self.client.result(job_id, timeout=120)
        except Exception as exc:  # a failed request is counted
            op.end = time.monotonic()
            op.fail(f"{type(exc).__name__}: {exc}")
            return op
        op.end = time.monotonic()
        handle = self.pool.job(job_id)
        op.queue_s = handle.started_at - handle.submitted_at
        op.exec_s = handle.finished_at - handle.started_at
        # pool queue and untraced worker, as the coordinator timed them,
        # from the moment the client's submit span ended
        op.unspanned_s = max(0.0, handle.finished_at - submitted)
        op.info["cluster.wire.bytes"] = (
            len(json.dumps(request.to_dict())) + len(json.dumps(summary))
        )
        op.info["cluster.wire.overhead_ms"] = (
            (op.latency_s - op.exec_s) * 1e3
        )
        effective = [
            event.payload.get("effective") for event in handle.channel
            if event.kind == "backend"
        ]
        if effective != [WANT_BACKEND[kind]]:
            op.fail(f"{kind} ran on {effective}, not {WANT_BACKEND[kind]}")
        op.check = (variant, summary["result"])
        return op

    def measure(self, seconds: float, tracer=None) -> Measured:
        status = self.pool.status()
        started = time.monotonic()
        ops = closed_loop(
            CLIENTS, seconds, lambda i: self._run_op(i, tracer),
            self.next_index,
        )
        self.next_index += len(ops)
        wall = time.monotonic() - started
        after = self.pool.status()
        return Measured(ops, wall, {
            "cluster.pool.steals": after["steals"] - status["steals"],
            "cluster.pool.migrations": (
                after["migrations"] - status["migrations"]
            ),
        })

    # ------------------------------------------------------------------
    def _reference(self, kind: str, variant: int):
        value = self.params[kind][variant]
        if kind == "cruise":
            model = cluster_models.cruise(setpoint=value)
            model.run(until=2.0, sync_interval=0.01)
            summary = summarise_result(SingleRunResult(
                probes={n: p.trajectory for n, p in model.probes.items()},
                stats={}, t_final=model.time.raw,
            ))
            return {"t_final": summary["t_final"], "probes": summary["probes"]}
        if kind == "servo":
            simulator = BatchSimulator(
                cluster_models.servo_farm(), n=32, h=1e-3,
                records=["servo.out"],
                sweeps={"pid.kp": self._gains(value, 32)},
                backend="native-batch",
            )
            result = simulator.run(2.0, record_every=RECORD_EVERY)
        else:
            result = BatchSimulator(
                cluster_models.pendulum(), n=64, h=1e-3,
                records=["pend.out"],
                sweeps={"pid.kp": self._gains(value, 64)},
            ).run(1.0, record_every=RECORD_EVERY)
        return summarise_result(result)

    @staticmethod
    def _comparable(kind: str, summary):
        if kind == "cruise":
            return {"t_final": summary["t_final"], "probes": summary["probes"]}
        return summary

    def verify(self, ops) -> None:
        references = {}
        for op in ops:
            if op.check is None:
                continue
            variant, summary = op.check
            key = (op.kind, variant)
            if key not in references:
                references[key] = self._reference(*key)
                if self.corrupt_reference:
                    references[key] = corrupt(references[key])
            if self._comparable(op.kind, summary) != references[key]:
                op.fail(f"{op.kind} result differs from the in-process run")
            op.check = None

    def counters(self):
        return {}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.pool is not None:
            self.pool.shutdown()
