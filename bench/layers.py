"""The layers a traced run times, and the per-layer metrics it reports.

:data:`TARGETS` names every library function wrapped during a traced
window, grouped into one span name per pipeline stage.  Each span name
yields two metrics, ``<span>.self_ms`` and ``<span>.count``: self time
and calls *per measured operation*, so runs of different length (and a
faster commit completing more operations) compare directly.  The other
per-layer metrics come from the service, the pool and the operations
themselves.  The self time of :data:`WAIT_SPANS` is a client thread
waiting for work done elsewhere, so it is never attributed to a layer.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, List

from bench.trace import Target
from repro.scenarios.spec import FAMILIES


def _shards(args, kwargs):
    return {"shards": args[0].shards}


def _cache_hit(result):
    return {"hit": bool(result[1])}


def _family(args, kwargs):
    return {"family": args[0].family}


def _bytes(result):
    try:
        return {"bytes": os.path.getsize(result)}
    except OSError:
        return {"bytes": 0}


TARGETS = [
    Target("bench.models", "pid_loop", "dataflow.build"),
    Target("bench.models", "thermostat", "dataflow.build"),
    Target("repro.cluster.models", "cruise", "dataflow.build"),
    Target("repro.cluster.models", "lag", "dataflow.build"),
    Target("repro.cluster.models", "pendulum", "dataflow.build"),
    Target("repro.cluster.models", "servo_farm", "dataflow.build"),
    Target("repro.scenarios.spec", "ScenarioSpec.build", "dataflow.build"),
    Target("repro.dataflow.diagram", "Diagram.finalise", "dataflow.finalise"),
    Target("repro.core.network", "FlatNetwork.__init__",
           "core.network.flatten"),
    Target("repro.core.plan", "ExecutionPlan.compile", "core.plan.compile"),
    Target("repro.core.plan", "ExecutionPlan.fingerprint",
           "core.plan.fingerprint"),
    Target("repro.core.opt.optimizer", "PlanOptimizer.run", "core.opt.run"),
    Target("repro.codegen.common", "lower", "codegen.lower"),
    Target("repro.codegen.common", "lower_network", "codegen.lower"),
    Target("repro.codegen.common", "lower_plan", "codegen.lower"),
    Target("repro.core.batch", "_render_program", "codegen.render"),
    Target("repro.core.backend.pykernel", "render_python_kernel",
           "codegen.render"),
    Target("repro.core.backend.native", "render_c_kernel", "codegen.render"),
    Target("repro.codegen.cgen", "render_batch_kernel", "codegen.render"),
    Target("repro.codegen.cgen", "generate_c", "codegen.render"),
    Target("repro.codegen.pygen", "generate_python", "codegen.render"),
    Target("repro.core.backend.base", "compile_program",
           "core.backend.compile"),
    Target("repro.core.backend.native", "build_artifact",
           "core.backend.native.build", after=_cache_hit),
    Target("repro.core.backend.native", "_load", "core.backend.native.load"),
    Target("repro.core.backend.nativebatch", "_load_batch",
           "core.backend.native.load"),
    Target("repro.core.backend.native", "NativeProgram.run",
           "core.backend.native.run"),
    Target("repro.core.backend.nativebatch", "NativeBatchKernel.run_segment",
           "core.backend.nativebatch.run_segment", before=_shards),
    Target("repro.core.backend.interpreter", "InterpreterProgram.run",
           "core.backend.interpreter.run"),
    Target("repro.core.backend.pykernel", "PyKernelProgram.run",
           "core.backend.pykernel.run"),
    Target("repro.core.batch", "compile_batch_program", "core.batch.compile"),
    Target("repro.core.batch", "BatchSimulator.__init__",
           "core.batch.instantiate"),
    Target("repro.core.batch", "BatchSimulator.run_chunked",
           "core.batch.run_chunked"),
    Target("repro.core.batch", "merge_chunks", "core.batch.merge_chunks"),
    Target("repro.core.batch", "simulate_sequential",
           "core.batch.sequential"),
    Target("repro.core.hybrid", "HybridScheduler.build", "core.hybrid.build"),
    Target("repro.core.hybrid", "HybridScheduler.run", "core.hybrid.run"),
    Target("repro.check", "run_checks", "check.run_checks"),
    Target("repro.scenarios.campaign", "execute_scenario",
           "scenarios.execute", before=_family),
    Target("repro.resilience.codec", "SnapshotCodec.capture",
           "resilience.checkpoint.capture"),
    Target("repro.resilience.checkpoint", "CheckpointManager.write",
           "resilience.checkpoint.write", after=_bytes),
    Target("repro.resilience.checkpoint", "CheckpointManager.load_latest",
           "resilience.checkpoint.load"),
    Target("repro.resilience.codec", "SnapshotCodec.restore",
           "resilience.checkpoint.restore"),
    Target("repro.service.cache", "PlanCache.get_or_compile",
           "service.cache.lookup"),
    Target("repro.service.jobs", "SingleRunJob.execute",
           "service.jobs.execute"),
    Target("repro.service.jobs", "BatchJob.execute", "service.jobs.execute"),
    Target("repro.service.jobs", "CodegenJob.execute",
           "service.jobs.execute"),
    Target("repro.service.jobs", "JobHandle.result", "service.handle.wait"),
    Target("repro.cluster.client", "ClusterClient.submit",
           "cluster.client.submit"),
    Target("repro.cluster.client", "ClusterClient.result",
           "cluster.client.result"),
]

#: span names in pipeline order (one self_ms and one count metric each)
SPANS: List[str] = list(dict.fromkeys(target.name for target in TARGETS))

#: spans whose self time is a thread waiting on another thread or
#: process: the benchmark's own per-operation span, a service job's
#: result (the campaign's fault family waits on a nested engine from
#: inside ``scenarios.execute``) and the cluster client's long poll
WAIT_SPANS = ("bench.op", "service.handle.wait", "cluster.client.result")

#: per-layer metrics one workload measures itself (zero on the others)
WORKLOAD_METRICS = (
    "sweep.inst_steps_per_s",
    *(
        f"service.engine.exec_ms.{kind}"
        for kind in ("single_run", "batch", "codegen")
    ),
    "service.deadline_met_frac",
    "service.max_ok_rate_per_s",
    *(
        f"service.open_loop.{stat}_ms.at{load}"
        for stat in ("p50", "p90") for load in (40, 70, 100)
    ),
    "cluster.pool.steals",
    "cluster.pool.migrations",
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _delta(after: Dict[str, Any], before: Dict[str, Any], *path) -> float:
    def read(snapshot):
        for key in path:
            if not isinstance(snapshot, dict):
                return 0
            snapshot = snapshot.get(key, 0)
        return snapshot if isinstance(snapshot, (int, float)) else 0

    return float(read(after) - read(before))


def layer_metrics(
    tracer, measured, before, after, overhead_frac: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced window."""
    ops = measured.ops
    n_ops = max(1, len(ops))
    totals = tracer.totals()
    out: Dict[str, float] = {}
    for name in SPANS:
        row = totals.get(name, {"count": 0, "self_s": 0.0})
        out[f"{name}.self_ms"] = row["self_s"] * 1e3 / n_ops
        out[f"{name}.count"] = row["count"] / n_ops

    builds = [s for s in tracer.spans if s.name == "core.backend.native.build"]
    hits = sum(1 for s in builds if s.args and s.args.get("hit"))
    out["core.backend.native.build.hits"] = hits / n_ops
    out["core.backend.native.build.misses"] = (len(builds) - hits) / n_ops
    out["core.backend.nativebatch.shards"] = float(max(
        [s.args["shards"] for s in tracer.spans
         if s.name == "core.backend.nativebatch.run_segment"],
        default=0,
    ))
    out["resilience.checkpoint.write.bytes"] = sum(
        s.args["bytes"] for s in tracer.spans
        if s.name == "resilience.checkpoint.write" and s.args
    ) / n_ops
    family_ms: Dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if span.name == "scenarios.execute" and span.args:
            family_ms[span.args["family"]] += span.self_ns / 1e6
    for family, __ in FAMILIES:
        out[f"scenarios.execute.{family}.self_ms"] = family_ms[family] / n_ops

    ran = [op for op in ops if op.exec_s > 0]
    out["service.engine.queue_wait_ms"] = _mean(op.queue_s for op in ran) * 1e3
    out["service.engine.exec_ms"] = _mean(op.exec_s for op in ran) * 1e3

    for key in ("hits", "misses", "compiles", "evictions"):
        out[f"service.cache.{key}"] = _delta(after, before, "cache", key)
    lookups = out["service.cache.hits"] + out["service.cache.misses"]
    out["service.cache.hit_ratio"] = (
        out["service.cache.hits"] / lookups if lookups else 0.0
    )
    out["service.admission.admitted"] = _delta(
        after, before, "counters", "sched.admitted",
    )
    out["service.admission.rejected"] = _delta(
        after, before, "counters", "sched.rejected.deadline",
    )
    for key in (
        "service.telemetry.chunk_events", "umlrt.messages_dispatched",
        "core.hybrid.events_fired", "cluster.wire.bytes",
    ):
        out[key] = sum(op.info.get(key, 0) for op in ops) / n_ops
    out["cluster.wire.overhead_ms"] = _mean(
        op.info["cluster.wire.overhead_ms"] for op in ops
        if "cluster.wire.overhead_ms" in op.info
    )

    out["bench.ops"] = float(len(ops))
    out["bench.generator_lag_ms"] = _mean(
        op.start - op.due for op in ops
    ) * 1e3
    out["bench.trace_overhead_frac"] = overhead_frac
    out["bench.unattributed_frac"] = unattributed_frac(tracer, ops)
    for key in WORKLOAD_METRICS:
        out[key] = float(measured.extra.get(key, 0.0))
    return out


def unattributed_frac(tracer, ops) -> float:
    """Share of the operations' summed latency that no named layer
    explains: latency minus the self time of every span but the
    :data:`WAIT_SPANS`, the time in layers no span records
    (``Op.unspanned_s``) and generator lateness.  Not clamped: a value
    outside (0, 1) means time was counted twice or lost."""
    done = [op for op in ops if op.end > 0]
    wall = sum(op.latency_s for op in done)
    attributed = sum(
        span.self_ns for span in tracer.spans
        if span.name not in WAIT_SPANS
    ) / 1e9
    attributed += sum(op.unspanned_s + (op.start - op.due) for op in done)
    return 1.0 - attributed / wall if wall > 0 else 0.0
