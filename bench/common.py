"""What every workload shares: operation records, closed loops, result
digests, percentiles, memory and the host stamp.

Imported only inside a workload subprocess (it imports NumPy; the
parent process in :mod:`bench.run` stays stdlib-only).
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import platform
import subprocess
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: input index of the warm-up operation each workload runs in set-up
#: (outside the stream of measured inputs, which starts at 0)
WARMUP = 1 << 40


@dataclass
class Op:
    """One measured operation (a job, a scenario or an HTTP request).

    Times are ``time.monotonic()`` values.  ``due`` is when the
    operation was meant to start: equal to ``start`` in a closed loop,
    the scheduled arrival in an open loop.
    """

    index: int
    kind: str
    due: float
    start: float = 0.0
    end: float = 0.0
    #: time the work waited in a queue before it ran (0 where unseen)
    queue_s: float = 0.0
    #: time the work ran (the whole latency where queueing is unseen)
    exec_s: float = 0.0
    #: time in a named layer that no span records (a queue wait, work in
    #: an untraced worker process), never overlapping this operation's
    #: own spans
    unspanned_s: float = 0.0
    ok: bool = True
    error: str = ""
    #: open-loop rate phase the operation was due in
    phase: int = 0
    #: what the correctness gates need after the measured window
    check: Any = None
    #: per-operation counts the per-layer metrics sum up
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return self.end - self.due

    def fail(self, error: str) -> None:
        if self.ok:
            self.ok = False
            self.error = error


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    data = sorted(values)
    if not data:
        return float("nan")
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def op_span(tracer):
    """The benchmark's own span around one operation in a traced window
    (its self time is client-side waiting, attributed to no layer)."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span("bench.op")


def closed_loop(
    clients: int,
    seconds: float,
    run_op: Callable[[int], Op],
    start_index: int = 0,
) -> List[Op]:
    """``clients`` threads each run operations back to back until
    ``seconds`` have passed; operation ``i`` gets input ``i`` of the
    seeded stream, whichever client takes it."""
    ops: List[Op] = []
    lock = threading.Lock()
    counter = iter(range(start_index, 1 << 62))
    stop_at = time.monotonic() + seconds

    def client() -> None:
        while time.monotonic() < stop_at:
            with lock:
                index = next(counter)
            op = run_op(index)
            with lock:
                ops.append(op)

    threads = [
        threading.Thread(target=client, name=f"bench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ops.sort(key=lambda op: op.index)
    return ops


def crc(array) -> str:
    data = np.ascontiguousarray(np.asarray(array))
    return format(zlib.crc32(data.tobytes()) & 0xFFFFFFFF, "08x")


def probes_digest(probes) -> Dict[str, Any]:
    """Digest of ``{name: Trajectory}`` (a single run's probes)."""
    return {
        name: (crc(trajectory.times), crc(trajectory.states))
        for name, trajectory in sorted(probes.items())
    }


def batch_digest(result) -> Dict[str, Any]:
    """Digest of a :class:`~repro.core.batch.BatchResult`."""
    return {
        "t": crc(result.t),
        "final": crc(result.final_states),
        **{
            f"series:{label}": crc(values)
            for label, values in sorted(result.series.items())
        },
    }


def corrupt(digest: Dict[str, Any]) -> Dict[str, Any]:
    """The digest with one entry changed (the failure-counting test)."""
    key = sorted(digest)[0]
    return {**digest, key: "corrupted"}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live child
    processes (pool workers), from ``VmHWM``."""
    pids = [os.getpid()] + [
        child.pid for child in multiprocessing.active_children()
    ]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def _output_lines(cmd) -> List[str]:
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, cwd=ROOT,
        )
    except (OSError, subprocess.SubprocessError):
        return []
    if proc.returncode != 0:
        return []
    return [line.strip() for line in proc.stdout.splitlines()]


def _git_commit() -> Optional[str]:
    """HEAD of the repository the benchmark sits in; None in a plain
    checkout (an enclosing repository's HEAD would be the wrong one)."""
    lines = _output_lines(["git", "rev-parse", "--show-toplevel", "HEAD"])
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None


def host_stamp() -> Dict[str, Any]:
    """The hardware and software a result was measured on."""
    from repro.core.backend.native import find_c_compiler
    from repro.core.backend.nativebatch import default_shards

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = find_c_compiler()
    cc_lines = _output_lines([compiler, "--version"]) if compiler else []
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": cc_lines[0] if cc_lines else None,
        "git_commit": _git_commit(),
        "default_shards": default_shards(),
    }


@dataclass
class Measured:
    """A workload's measured window: its operations and wall time."""

    ops: List[Op]
    wall_s: float
    #: workload-specific end-to-end and per-layer values
    extra: Dict[str, float] = field(default_factory=dict)
