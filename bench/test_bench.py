"""Smoke tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/

Each workload runs in smoke mode (one second, shortened operations)
untraced and traced; together they take about a minute on a 2-core
host.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(tmp_path, workload, trace, *extra, cwd=ROOT):
    trace_file = tmp_path / f"{workload}.trace.json"
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace),
            "--smoke", "--trace-file", str(trace_file), *extra,
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None), trace_file


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    proc, line, trace_file = run_bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for name, metric in line["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    if trace:
        # time counted twice would push it to 0 or below, time lost to 1
        assert 0 < line["metrics"]["bench.unattributed_frac"]["value"] < 1
    else:
        for name, metric in line["metrics"].items():
            assert metric["value"] > 0, name


def test_trace_is_chrome_trace_event_json(tmp_path):
    proc, line, trace_file = run_bench(tmp_path, "sweep", 1)
    assert proc.returncode == 0, proc.stderr[-3000:]
    events = json.loads(trace_file.read_text())["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    assert complete
    for event in complete:
        assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
        assert event["dur"] >= 0
    names = {event["name"] for event in complete}
    assert "core.backend.nativebatch.run_segment" in names


@pytest.mark.parametrize("workload", ["service-mix", "cluster-wire"])
def test_corrupted_reference_is_counted_as_failure(tmp_path, workload):
    proc, line, __ = run_bench(tmp_path, workload, 0, "--corrupt-reference")
    assert proc.returncode == 1, proc.stderr[-3000:]
    assert line["correct"] is False
    assert line["failed"] >= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc, line, __ = run_bench(tmp_path, "sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert line is None


def test_compare_flags_regression_and_unresolved(tmp_path):
    steady = [100.0 + i * 0.1 for i in range(10)]
    slower = [130.0 + i * 0.1 for i in range(10)]
    noisy = [100.0, 160.0] * 5
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "same"
    assert compare.verdict(steady, slower, "lower", 0.1)[0] == "regression"
    assert compare.verdict(slower, steady, "lower", 0.1)[0] == "gain"
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(steady, slower, "higher", 0.1)[0] == "gain"
    # set-up time: judged by its median, however wide its spread
    assert compare.verdict(noisy, noisy, "lower", 0.1, True)[0] == "same"
    assert compare.verdict(
        noisy, [x * 1.3 for x in noisy], "lower", 0.1, True,
    )[0] == "regression"
    assert compare.verdict(steady, slower, "lower", None)[0] == "loss"
    assert compare.verdict(steady, steady, "lower", None)[0] == "-"

    # a change whose runs failed more operations is failing, even where
    # its numbers read better
    def result(name, failed, setup_s):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "sweep", "failed": failed,
            "metrics": {"setup_s": {"value": setup_s, "unit": "s"}},
            "timings": {"throughput_per_s": {"value": 10.0, "unit": "1/s"}},
        }))
        return path

    parent = [result(f"p{i}.json", 0, 1.0 + i * 1e-3) for i in range(5)]
    change = [result(f"c{i}.json", i == 2, 0.5) for i in range(5)]
    rows = compare.compare(parent, change, SPEC)
    assert {row["metric"] for row in rows} == {"setup_s", "throughput_per_s"}
    assert {row["status"] for row in rows} == {"failing"}
    assert compare.main(
        ["--parent", *map(str, parent), "--change", *map(str, change)]
    ) == 1
    rows = compare.compare(parent, parent, SPEC)
    assert [row["status"] for row in rows] == ["same", "-"]
