"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workload runs in a fresh subprocess
(:mod:`bench.harness`) with a hermetic environment: a new native
artifact cache, temp dir, artifact store and spool root under
``.bench_work/``, none of the ``REPRO_*`` tuning variables inherited,
so no run reuses another's compiled kernels.  With ``--trace 0`` the
last line of standard output carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, and the
Chrome trace is written to ``.bench_out/`` (or ``--trace-file``).

``setup_s`` is the median of several set-ups, each in its own fresh
process: from process start to the end of set-up (imports, service or
pool start, cold compiles, warm-up).  ``peak_rss_mb`` is the median of
the same processes' memory high-water marks at that moment.  The
measured window's own timings are per-layer metrics; an untraced run
writes them to ``--out`` beside the end-to-end ones.  The exit code is
non-zero when a correctness gate fails, when the library source is
missing, or when no C compiler is available (the native backends would
be demoted).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "campaign", "service-mix", "cluster-wire")
SETUP_SAMPLES = 5
#: every run ends within this many seconds, hung children included
RUN_BUDGET_S = 170.0
#: environment knobs that would make a run depend on its caller
SCRUBBED_ENV = (
    "REPRO_NATIVE_DISABLE", "REPRO_NATIVE_BATCH_SHARDS",
    "REPRO_BATCH_CACHE_CAP", "REPRO_NATIVE_CACHE_MAX_MB",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    (work / "native").mkdir(parents=True)
    (work / "tmp").mkdir()
    env["REPRO_NATIVE_CACHE"] = str(work / "native")
    env["TMPDIR"] = str(work / "tmp")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever the child left in its process group and wait for
    the group to be gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def run_child(args, work: Path, setup_only: bool, deadline: float) -> dict:
    """Run the harness once in a fresh process; returns its findings
    with ``setup_s`` measured from the moment it was spawned."""
    result = work / "result.json"
    cmd = [
        sys.executable, "-m", "bench.harness",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--work", str(work),
        "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--trace", "--trace-file", str(args.trace_file)]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    env = _child_env(work)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        proc.wait()
        raise BenchError(f"{args.workload} did not finish in time")
    finally:
        _stop_group(proc)
    if code != 0:
        raise BenchError(f"{args.workload} harness exited with code {code}")
    out = json.loads(result.read_text())
    out["setup_s"] = out.pop("setup_done") - spawned
    return out


def run_workload(args) -> dict:
    """Every process of one workload run: the measured one plus the
    extra set-up samples.  Returns the full result record; its
    ``metrics`` hold the section of ``BENCHMARK.json`` the run reports
    (per-layer when traced, end-to-end otherwise), each with its unit,
    and its ``timings`` the untraced window's per-layer timings."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"library source not found under {ROOT / 'src'}")
    spec = load_spec()
    if args.trace and args.trace_file is None:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        args.trace_file = (
            ROOT / ".bench_out"
            / f"trace-{args.workload}-seed{args.seed}.json"
        )
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    samples = []
    out = None
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = 1 if (args.trace or args.smoke) else SETUP_SAMPLES
    for attempt in range(runs):
        work = work_root / f"{args.workload}-{os.getpid()}-{attempt}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            found = run_child(args, work, attempt > 0, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        samples.append(found)
        out = out or found
    section = spec["per_layer" if args.trace else "end_to_end"]
    values = {
        **out["metrics"],
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["setup_rss_mb"] for s in samples),
    }
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "smoke": args.smoke,
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in section
        },
        "timings": {
            name: {"value": value, "unit": units[name]}
            for name, value in out["timings"].items()
        },
        "setup_samples": {
            key: [s[key] for s in samples]
            for key in ("setup_s", "setup_rss_mb")
        },
        "counts": out["counts"], "errors": out["errors"],
        "host": out["host"],
    }


def parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path,
                        help="Chrome trace path (traced runs)")
    parser.add_argument("--out", type=Path,
                        help="also write the full result (host, counts)")
    parser.add_argument("--smoke", action="store_true",
                        help="shorter operations, one set-up sample")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _exit_on_sigterm(signum, frame):
    # unwind through the finally blocks: they stop the workload's
    # process group and remove its work directory
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        record = run_workload(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    for error in record["errors"]:
        print(f"bench: failure: {error}", file=sys.stderr)
    print(json.dumps({
        key: record[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
