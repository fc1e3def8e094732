"""``service-mix``: Poisson arrivals into the deadline-aware service.

A closed-loop phase, one client per worker, first measures the mix's
capacity C on ``SimulationService(workers=2, dispatch="edf",
deadline_admission=True)`` and its latency with every worker busy;
then, open loop, jobs arrive at 0.4, 0.7 and 1.0 times C in
turn, each for a fixed share of the run, which gives the per-layer
open-loop latencies, the deadline-met fraction at 0.7 C and the highest
rate meeting the latency limit.  Every job carries a deadline.  The
mix:

* ``cruise``: the cruise-control loop on the plan interpreter;
* ``cruise-native``: the same loop through the native-c hybrid bridge;
* ``thermostat``: a capsule's state machine supervising a streamer over
  SPorts, with zero-crossing events (the quickstart's shape);
* ``pendulum``: a NumPy ``batch`` sweep, N=32;
* ``codegen``: C and Python code generation of the 204-block loop
  (plan-cache hits after the first of each variant);
* ``lag``: a checkpointed single run that a seeded fault injector
  crashes once, so the retry resumes from the spool.

This exercises the service engine (queue, admission, EDF), the
interpreter, hybrid scheduler and capsule runtime, and the resilience
layer's checkpoint writes and resume reads; the native kernels do
little.  Open-loop latency is timed from each job's due time, so
generator lateness counts.  A shed or expired job is a deadline miss,
not a failure.

Gates, after the window: every single run must equal an uninterrupted
direct run of its model (``cruise-native`` must equal the interpreter
bitwise), every batch an unchunked direct run, every generated source a
direct code-generation call; a ``lag`` job must have been resumed; and
no job may run on another backend than requested.
"""

from __future__ import annotations

import functools
import queue
import random
import shutil
import threading
import time

import numpy as np

from bench import models
from bench.common import (
    WARMUP, Measured, Op, batch_digest, closed_loop, corrupt, crc,
    op_span, percentile, probes_digest,
)
from repro import (
    BatchJob, CodegenJob, FaultInjector, ServiceOverloaded,
    SimulationService, SingleRunJob,
)
from repro.cluster import models as cluster_models
from repro.codegen import generate_c, generate_python
from repro.core.batch import BatchSimulator
from repro.service import JobTimeoutError

WORKERS = 2
#: (kind, draw weight, relative deadline in s); every kind takes a few
#: tens of milliseconds alone, so the latency distribution has one mode
KINDS = (
    ("cruise", 3, 1.0),
    ("cruise-native", 2, 1.0),
    ("thermostat", 1, 1.0),
    ("pendulum", 2, 1.5),
    ("codegen", 1, 0.5),
    ("lag", 1, 0.75),
)
DEADLINE = {kind: deadline for kind, __, deadline in KINDS}
#: kinds in draw-weight proportion; input ``i`` has kind ``i mod len``,
#: so every phase carries the same mix and only the variants are drawn
ROTATION = [kind for kind, weight, __ in KINDS for __ in range(weight)]
#: the service job kind of each mix kind that is not a single run
JOB_KIND = {"pendulum": "batch", "codegen": "codegen"}
VARIANTS = 3
#: single-run kinds: (model factory module and name, backend, simulated
#: seconds, sync interval); the factory is looked up per job, so a
#: traced window sees it wrapped
SINGLE_RUNS = {
    "cruise": (cluster_models, "cruise", None, 2.0, 0.01),
    "cruise-native": (cluster_models, "cruise", "native-c", 2.0, 0.01),
    "thermostat": (models, "thermostat", None, 1.5, 0.05),
    "lag": (cluster_models, "lag", None, 2.0, 0.01),
}
PENDULUM_T_END = 0.5
CODEGEN_T_END = 10.0
#: offered load of the open-loop phases as fractions of the capacity C
#: the same run measured just before them.  Fractions, not fixed rates:
#: on a shared 2-core host the speed drifts by 10-30% between runs, and
#: at a fixed absolute rate queueing amplified that drift into
#: run-to-run latency spreads above 50%
LOAD_FRACTIONS = (0.4, 0.7, 1.0)
#: shares of the run: the closed-loop capacity phase, then one share
#: per open-loop phase
CAPACITY_SHARE = 0.4
PHASE_SHARES = (0.25, 0.2, 0.15)
#: the closed-loop operations' phase number; the end-to-end latencies
#: are this phase's.  Open-loop latency is a per-layer metric: its
#: run-to-run spread on a shared 2-core host was 15-27% at 0.4 C and
#: 40-70% at 0.7 C (six runs each), beyond any usable regression bound
CAPACITY_PHASE = len(LOAD_FRACTIONS)
#: the deadline-met fraction is reported at the middle rate
REPORT_PHASE = 1
LATENCY_LIMIT_S = 1.0
MET_FRAC_LIMIT = 0.95


class ServiceMix:
    name = "service-mix"
    tail = 90

    def __init__(self, seed: int, smoke: bool, work, corrupt_reference):
        self.seed = seed
        #: the input stream continues across measured windows
        self.next_index = 0
        self.spool_root = work / "spool"
        self.corrupt_reference = corrupt_reference
        self.service = None
        rng = random.Random(f"{seed}:variants")

        def draw(make):
            return [make() for __ in range(VARIANTS)]

        setpoints = draw(lambda: {"setpoint": round(rng.uniform(18, 30), 3)})
        self.params = {
            "cruise": setpoints,
            "cruise-native": setpoints,
            "thermostat": draw(
                lambda: {"power": round(rng.uniform(1.8, 2.4), 3)}
            ),
            "lag": draw(lambda: {"tau": round(rng.uniform(0.3, 0.8), 3)}),
            "pendulum": draw(lambda: round(rng.uniform(30.0, 40.0), 3)),
            "codegen": draw(lambda: round(rng.uniform(0.5e-3, 2e-3), 6)),
        }
        self.crash_steps = draw(lambda: rng.randint(60, 150))

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def job(self, index: int):
        """``(kind, variant, spec)`` of input ``index``."""
        kind = ROTATION[index % len(ROTATION)]
        variant = random.Random(f"{self.seed}:job:{index}").randrange(
            VARIANTS,
        )
        return kind, variant, self._spec(kind, variant, index)

    def _spec(self, kind: str, variant: int, index: int):
        value = self.params[kind][variant]
        common = dict(name=f"{kind}-{index}", deadline=DEADLINE[kind])
        if kind in SINGLE_RUNS:
            module, factory, backend, t_end, sync = SINGLE_RUNS[kind]
            if kind == "lag":
                common.update(
                    checkpoint_dir=str(self.spool_root / f"lag-{index}"),
                    checkpoint_every_steps=50, retries=1, backoff=0.0,
                    fault_injector=FaultInjector(seed=index).crash_at_step(
                        self.crash_steps[variant],
                    ),
                )
            spec = SingleRunJob(
                model_factory=functools.partial(
                    getattr(module, factory), **value,
                ),
                t_end=t_end, sync_interval=sync, backend=backend, **common,
            )
        elif kind == "pendulum":
            spec = BatchJob(
                diagram_factory=cluster_models.pendulum, n=32,
                t_end=PENDULUM_T_END, h=1e-3, records=["pend.out"],
                sweeps={"pid.kp": self._gains(value)}, **common,
            )
        else:
            spec = CodegenJob(
                diagram_factory=models.pid_loop, h=value,
                t_end=CODEGEN_T_END,
                lang=self._lang(index), **common,
            )
        return spec

    @staticmethod
    def _gains(base: float) -> np.ndarray:
        return base + np.linspace(-2.0, 2.0, 32)

    @staticmethod
    def _lang(index: int) -> str:
        """Code generation alternates C and Python round by round."""
        return "c" if (index // len(ROTATION)) % 2 == 0 else "python"

    @staticmethod
    def schedule(seconds: float, capacity: float):
        """``(offset, phase)`` arrivals of the open-loop phases: one
        fixed unit-rate Poisson sample path per phase, scaled to the
        phase's rate.  The seed picks which jobs arrive, not the burst
        pattern, so the spread between runs measures the system rather
        than the sampling of bursts."""
        arrivals = []
        phase_start = 0.0
        for phase, (fraction, share) in enumerate(
            zip(LOAD_FRACTIONS, PHASE_SHARES)
        ):
            rate = fraction * capacity
            duration = seconds * share
            rng = random.Random(f"service-mix arrivals {phase}")
            clock = rng.expovariate(1.0) / rate
            while clock < duration:
                arrivals.append((phase_start + clock, phase))
                clock += rng.expovariate(1.0) / rate
            phase_start += duration
        return arrivals, phase_start

    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.service = SimulationService(
            workers=WORKERS, dispatch="edf", deadline_admission=True,
        )
        # one job of every kind and variant: fills the plan and native
        # caches and calibrates the admission cost model before the
        # first measured arrival.  It also keeps native-c compiles out of
        # the window, where two workers building the same new kernel at
        # once race on the artifact's temporary file (the library names
        # it per process, not per thread)
        for kind, __, __ in KINDS:
            for variant in range(VARIANTS):
                spec = self._spec(kind, variant, WARMUP + variant)
                self.service.submit(spec).result(timeout=120)

    def _submit(self, index: int, due: float, phase: int):
        kind, variant, spec = self.job(index)
        op = Op(index=index, kind=kind, due=due, phase=phase)
        op.check = variant
        op.start = time.monotonic()
        try:
            handle = self.service.submit(spec)
        except ServiceOverloaded:
            op.info["shed"] = 1
            return op, None
        return op, handle

    def _finish(self, op: Op, handle) -> None:
        try:
            result = handle.result(timeout=120)
        except JobTimeoutError:
            op.info["expired"] = 1
            result = None
        except Exception as exc:  # a failed job is counted
            op.fail(f"{type(exc).__name__}: {exc}")
            result = None
        op.end = handle.finished_at or time.monotonic()
        if handle.started_at is not None:
            op.queue_s = handle.started_at - handle.submitted_at
            op.exec_s = op.end - handle.started_at
            # the worker threads' spans record the execution
            op.unspanned_s = op.queue_s
        met = result is not None and op.latency_s <= DEADLINE[op.kind]
        op.info["met"] = 1 if met else 0
        op.info["attempts"] = handle.attempts
        if result is not None:
            # keep a digest, not the result: holding every result until
            # the gates run would grow this process with the job count
            op.check = (op.check, self._digest(op.kind, result))
            self._note_backend(op, result)

    @staticmethod
    def _note_backend(op: Op, result) -> None:
        stats = getattr(result, "stats", None)
        if op.kind == "pendulum" or not isinstance(stats, dict):
            return
        op.info["umlrt.messages_dispatched"] = stats["messages_dispatched"]
        op.info["core.hybrid.events_fired"] = stats["events_fired"]
        want = "native-c" if op.kind == "cruise-native" else "interpreter"
        effective = stats["backend"]["effective"]
        if effective != want:
            op.fail(f"ran on {effective}, not {want}")

    def measure(self, seconds: float, tracer=None) -> Measured:
        # capacity: one closed-loop client per worker keeps every worker
        # busy without a queue, whose ordering would amplify the host's
        # speed drift into the latency tail
        started = time.monotonic()
        saturated = closed_loop(
            WORKERS, seconds * CAPACITY_SHARE,
            lambda i: self._closed_op(i, tracer), self.next_index,
        )
        capacity = sum(
            1 for op in saturated
            if op.ok and not (op.info.get("shed") or op.info.get("expired"))
        ) / (time.monotonic() - started)
        self.next_index += len(saturated)
        arrivals, total = self.schedule(seconds, capacity)
        submitted: "queue.Queue" = queue.Queue()
        ops = []

        def collect() -> None:
            while True:
                item = submitted.get()
                if item is None:
                    return
                op, handle = item
                if handle is not None:
                    self._finish(op, handle)
                ops.append(op)

        collector = threading.Thread(target=collect, name="bench-collector")
        collector.start()
        depths = []
        t0 = time.monotonic()
        phase = 0
        for index, (offset, arrival_phase) in enumerate(
            arrivals, self.next_index,
        ):
            due = t0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if arrival_phase != phase:
                depths.append(self.service.engine.queue_depth)
                phase = arrival_phase
            submitted.put(self._submit(index, due, arrival_phase))
        self.next_index += len(arrivals)
        delay = t0 + total - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        depths.append(self.service.engine.queue_depth)
        submitted.put(None)
        collector.join()
        extra = self._rate_metrics(ops, depths, capacity)
        extra["throughput_per_s"] = capacity
        for kind in ("single_run", "batch", "codegen"):
            ran = [
                op.exec_s for op in saturated + ops
                if op.exec_s > 0
                and JOB_KIND.get(op.kind, "single_run") == kind
            ]
            extra[f"service.engine.exec_ms.{kind}"] = (
                sum(ran) / len(ran) * 1e3 if ran else 0.0
            )
        return Measured(saturated + ops, time.monotonic() - started, extra)

    def _closed_op(self, index: int, tracer) -> Op:
        op, handle = self._submit(index, time.monotonic(), CAPACITY_PHASE)
        if handle is None:
            op.end = time.monotonic()
            return op
        with op_span(tracer):
            self._finish(op, handle)
        return op

    def _rate_metrics(self, ops, depths, capacity):
        best = 0.0
        report = {}
        for phase, fraction in enumerate(LOAD_FRACTIONS):
            due = [op for op in ops if op.phase == phase]
            done = [op for op in due if not op.info.get("shed")]
            latencies = [op.latency_s for op in done] or [0.0]
            tail = percentile(latencies, self.tail)
            load = f"at{round(fraction * 100)}"
            report[f"service.open_loop.p50_ms.{load}"] = (
                percentile(latencies, 50) * 1e3
            )
            report[f"service.open_loop.p90_ms.{load}"] = tail * 1e3
            met = sum(op.info.get("met", 0) for op in due) / max(1, len(due))
            ok = (
                done and tail <= LATENCY_LIMIT_S
                and met >= MET_FRAC_LIMIT
                and depths[phase] <= 2 * WORKERS
            )
            if ok:
                best = fraction * capacity
            if phase == REPORT_PHASE:
                report["service.deadline_met_frac"] = met
        report["service.max_ok_rate_per_s"] = best
        return report

    def latency_ops(self, ops):
        return [
            op for op in ops
            if op.phase == CAPACITY_PHASE and not op.info.get("shed")
        ]

    # ------------------------------------------------------------------
    def _reference(self, kind: str, variant: int, lang: str):
        value = self.params[kind][variant]
        if kind in SINGLE_RUNS:
            module, factory, __, t_end, sync = SINGLE_RUNS[kind]
            model = getattr(module, factory)(**value)
            model.run(until=t_end, sync_interval=sync)
            return probes_digest({
                name: probe.trajectory for name, probe in model.probes.items()
            })
        if kind == "pendulum":
            return batch_digest(BatchSimulator(
                cluster_models.pendulum(), n=32, h=1e-3,
                records=["pend.out"], sweeps={"pid.kp": self._gains(value)},
            ).run(PENDULUM_T_END))
        if lang == "c":
            source = generate_c(
                models.pid_loop(), default_h=value, t_end=CODEGEN_T_END,
            )
        else:
            source = generate_python(models.pid_loop(), default_h=value)
        return {"source": crc(np.frombuffer(source.encode(), np.uint8))}

    @staticmethod
    def _digest(kind, result):
        if kind == "pendulum":
            return batch_digest(result)
        if kind == "codegen":
            return {"source": crc(np.frombuffer(result.encode(), np.uint8))}
        return probes_digest(result.probes)

    def verify(self, ops) -> None:
        references = {}
        for op in ops:
            if not isinstance(op.check, tuple):
                continue
            variant, digest = op.check
            lang = self._lang(op.index) if op.kind == "codegen" else ""
            key = (op.kind, variant, lang)
            if key not in references:
                references[key] = self._reference(*key)
                if self.corrupt_reference:
                    references[key] = corrupt(references[key])
            if digest != references[key]:
                op.fail(f"{op.kind} output differs from its reference run")
            if op.kind == "lag" and op.info.get("attempts") != 2:
                op.fail("lag job was not crashed and resumed")
            op.check = None
        shutil.rmtree(self.spool_root, ignore_errors=True)

    def counters(self):
        return self.service.metrics_snapshot()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
