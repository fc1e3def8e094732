"""Compare parent and change result files, metric by metric.

    python3 bench/compare.py --parent P1.json P2.json ... \\
                             --change C1.json C2.json ...

Each file is a result written by ``bench/run.py --out`` (one workload)
or ``python -m bench run --out`` (all workloads); an untraced result
carries its end-to-end metrics and its per-layer timings.  Files pair up
in the order given — run them alternating, parent first in one pair and
change first in the next.  Five pairs show whether two sets agree; a
gain can only be claimed from ten or more.  One row per workload and
metric of ``BENCHMARK.json``: each side's median and quartiles, the
change's win fraction over the pairs (ties count for neither) and a
verdict:

* ``failing``: the change's runs of this workload failed more
  operations than the parent's, so none of its numbers count;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: the parent's own spread (interquartile range over
  median) exceeds the bound, so "no regression" cannot be shown —
  unless every change run beats every parent run.  ``setup_s`` is
  judged by its median alone (:data:`MEDIAN_ONLY`);
* ``gain`` (or ``loss``): with ten pairs or more, the change wins (or
  loses) at least nine tenths of them and the medians differ by more
  than the parent's interquartile range;
* ``same`` for a bounded metric otherwise, ``-`` for an unbounded one.

Exits 1 when any row is failing, a regression or unresolved.  Stdlib
only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 5
GAIN_PAIRS = 10
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
BAD = ("failing", "regression", "unresolved")
#: metrics never marked unresolved.  Set-up time is bounded so that work
#: moved out of the measured window into set-up shows as a regression of
#: its median; its run-to-run spread (0.15-0.25 on a shared 2-vCPU host,
#: each run already the median of five fresh-process set-ups) is the
#: host's start-up noise, and the benchmark's acceptance rule exempts
#: it from the spread test likewise
MEDIAN_ONLY = ("setup_s",)


def load_runs(path: Path):
    """``{workload: (failed, {metric: value})}`` of one result file."""
    data = json.loads(path.read_text())
    records = data.get("workloads") or {data["workload"]: data}
    return {
        workload: (record["failed"], {
            name: entry["value"]
            for name, entry in {
                **record["metrics"], **record.get("timings", {}),
            }.items()
        })
        for workload, record in records.items()
    }


def verdict(parent, change, better: str, bound, median_only=False):
    """Status of one workload x metric from paired samples."""
    sign = 1.0 if better == "lower" else -1.0
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    q_p = statistics.quantiles(parent, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    if bound is not None:
        worse = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
        spread = (q_p[2] - q_p[0]) / abs(med_p) if med_p else 0.0
        all_better = all(
            sign * (p - c) > 0 for p in parent for c in change
        )
        if worse > bound:
            return "regression", win_frac
        if spread > bound and not all_better and not median_only:
            return "unresolved", win_frac
    if len(parent) >= GAIN_PAIRS and abs(med_c - med_p) > q_p[2] - q_p[0]:
        if win_frac >= 0.9:
            return "gain", win_frac
        if losses / len(parent) >= 0.9:
            return "loss", win_frac
    return ("-" if bound is None else "same"), win_frac


def compare(parent_files, change_files, spec):
    metrics = {
        m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]
    }
    parents = [load_runs(Path(p)) for p in parent_files]
    changes = [load_runs(Path(c)) for c in change_files]
    rows = []
    for workload in sorted(parents[0]):
        failing = (
            sum(run[workload][0] for run in changes)
            > sum(run[workload][0] for run in parents)
        )
        for name in parents[0][workload][1]:
            meta = metrics.get(name)
            if meta is None:
                continue
            parent = [run[workload][1][name] for run in parents]
            change = [run[workload][1][name] for run in changes]
            status, win_frac = verdict(
                parent, change, meta["better"], meta.get("bound"),
                median_only=name in MEDIAN_ONLY,
            )
            rows.append({
                "workload": workload, "metric": name, "unit": meta["unit"],
                "parent": _summary(parent), "change": _summary(change),
                "win_frac": win_frac, "bound": meta.get("bound"),
                "status": "failing" if failing else status,
            })
    return rows


def _summary(values):
    q = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def _fmt(summary) -> str:
    return (
        f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}]"
    )


def render(rows) -> str:
    lines = [
        f"{'workload':<13} {'metric':<40} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'wins':>5} {'bound':>6}  status"
    ]
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        lines.append(
            f"{row['workload']:<13} {row['metric']:<40} "
            f"{_fmt(row['parent']):>30} {_fmt(row['change']):>30} "
            f"{row['win_frac']:>5.2f} {bound:>6}  {row['status']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py")
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("give as many change files as parent files")
    if len(args.parent) < MIN_PAIRS:
        parser.error(f"need at least {MIN_PAIRS} pairs of result files")
    if len(args.parent) < GAIN_PAIRS:
        print(f"(fewer than {GAIN_PAIRS} pairs: no gain can be claimed)")
    rows = compare(args.parent, args.change, json.loads(SPEC.read_text()))
    print(render(rows))
    return 1 if any(row["status"] in BAD for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
