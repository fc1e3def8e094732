"""One workload in one fresh process: set up, measure, check, report.

Run by :mod:`bench.run` as ``python -m bench.harness`` with a hermetic
environment (its own native artifact cache, temp dir, store and spool
roots); writes its findings as JSON to ``--result``.  With
``--setup-only`` it stops after set-up, which is how the parent takes
several set-up samples per run.  Every process reports when its set-up
ended and its memory high-water mark at that moment.

An untraced run measures the whole window and reports its timings
(:func:`timings`).  A traced run first measures an untraced window
(half the time) for those timings, then installs the span wrappers and
measures the rest; the input stream continues across the two windows,
so neither replays the other's inputs into warm caches.  Span-based
per-layer metrics come from the traced window; the ratio of the
windows' throughputs is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

UNTRACED_SHARE = 0.5


def _workloads():
    from bench.campaign import Campaign
    from bench.cluster_wire import ClusterWire
    from bench.service_mix import ServiceMix
    from bench.sweep import Sweep

    return {w.name: w for w in (Sweep, Campaign, ServiceMix, ClusterWire)}


def throughput(measured) -> float:
    """Operations completed per second (a workload may measure its own,
    e.g. a closed-loop capacity phase after an open loop)."""
    value = measured.extra.get("throughput_per_s")
    if value is None:
        value = sum(1 for op in measured.ops if op.ok) / measured.wall_s
    return value


def timings(workload, seconds: float):
    """Measure an untraced window; returns it with its timings (per-layer
    metrics: on this shared host their run-to-run spread is too wide to
    bound) and the latency sample count."""
    from bench.common import peak_rss_mb, percentile

    rss_before = peak_rss_mb()
    measured = workload.measure(seconds)
    ops = measured.ops
    latency_ops = getattr(workload, "latency_ops", None)
    timed = latency_ops(ops) if latency_ops else [op for op in ops if op.ok]
    latencies = [op.latency_s for op in timed]
    return measured, {
        "throughput_per_s": throughput(measured),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_tail_ms": percentile(latencies, workload.tail) * 1e3,
        "bench.rss_growth_kb_per_op": (
            (peak_rss_mb() - rss_before) * 1024 / max(1, len(ops))
        ),
    }, {"latency_samples": len(latencies), "tail_percentile": workload.tail}


def run(args) -> dict:
    from bench.common import peak_rss_mb

    workload_class = _workloads()[args.workload]
    work = Path(args.work)
    workload = workload_class(
        seed=args.seed, smoke=args.smoke, work=work,
        corrupt_reference=args.corrupt_reference,
    )
    try:
        workload.setup()
        out = {"setup_done": time.monotonic(), "setup_rss_mb": peak_rss_mb()}
        if args.setup_only:
            return out
        from bench.common import host_stamp

        if not args.trace:
            measured, timed, counts = timings(workload, args.seconds)
            all_ops = measured.ops
            metrics = {}
            counts["details"] = measured.extra
        else:
            from bench.layers import TARGETS, layer_metrics
            from bench.trace import Tracer

            untraced, timed, counts = timings(
                workload, args.seconds * UNTRACED_SHARE,
            )
            tracer = Tracer()
            before = workload.counters()
            tracer.install(TARGETS)
            try:
                measured = workload.measure(
                    args.seconds * (1 - UNTRACED_SHARE), tracer=tracer,
                )
            finally:
                tracer.uninstall()
            after = workload.counters()
            all_ops = untraced.ops + measured.ops
            metrics = {**timed, **layer_metrics(
                tracer, measured, before, after,
                throughput(untraced) / throughput(measured) - 1.0,
            )}
            counts["spans"] = len(tracer.spans)
            if args.trace_file:
                tracer.write_chrome(args.trace_file)
            print(tracer.self_time_table(), file=sys.stderr)
        workload.verify(all_ops)
        failures = [op for op in all_ops if not op.ok]
        out.update({
            "attempted": len(all_ops),
            "failed": len(failures),
            "errors": sorted({op.error for op in failures})[:10],
            "metrics": metrics,
            "timings": timed,
            "counts": {"ops": len(measured.ops), **counts},
            "host": host_stamp(),
        })
        return out
    finally:
        workload.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.harness")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    from repro.core.backend import has_c_compiler

    if not has_c_compiler():
        print("bench: no C compiler; the native backends would be demoted",
              file=sys.stderr)
        return 3
    try:
        out = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
