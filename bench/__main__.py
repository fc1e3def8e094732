"""``python -m bench run`` runs every workload.

    python -m bench run --seed 1 [--trace] [--smoke] [--out results.json]

Run from the repository root.  Each workload runs exactly as
``bench/run.py`` runs it (its own processes, hermetic environment) for
``run_seconds`` of ``BENCHMARK.json`` (a twentieth of that with
``--smoke``).  Prints every metric by name and unit per workload, and
exits non-zero when any workload fails a correctness gate or cannot
run.  Result files are compared with ``python3 bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from bench import run


def run_all(argv) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench run")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = run.load_spec()["run_seconds"] / (20 if args.smoke else 1)
    records = {}
    for workload in run.WORKLOADS:
        try:
            record = run.run_workload(argparse.Namespace(
                workload=workload, seed=args.seed, seconds=seconds,
                trace=int(args.trace), trace_file=None, smoke=args.smoke,
                corrupt_reference=False,
            ))
        except (run.BenchError, OSError, ValueError) as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            continue
        records[workload] = record
        print(
            f"{workload}: correct={record['correct']} "
            f"attempted={record['attempted']} failed={record['failed']} "
            f"counts={json.dumps(record['counts'])}"
        )
        shown = {**record["metrics"], **record["timings"]}
        for name, metric in shown.items():
            print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
        for error in record["errors"]:
            print(f"  failure: {error}")
    if args.out is not None and records:
        args.out.write_text(json.dumps({
            "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
            "seconds": seconds,
            "host": next(iter(records.values()))["host"],
            "workloads": records,
        }, indent=2) + "\n")
    complete = len(records) == len(run.WORKLOADS)
    return 0 if complete and all(r["correct"] for r in records.values()) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, run._exit_on_sigterm)
    if argv[:1] == ["run"]:
        return run_all(argv[1:])
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
