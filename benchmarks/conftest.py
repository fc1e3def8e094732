"""Shared benchmark helpers.

Every benchmark prints the table/series it reproduces (run with ``-s`` to
see them inline); the same summaries land in ``benchmarks/results.txt``
so EXPERIMENTS.md can cite a stable artefact.  Each summary is one block
under its ``== title ==`` header: a rerun replaces its own blocks and
keeps every other bench's, so running one bench file refreshes only
that bench's sections.
Machine-readable headline metrics additionally land in ``BENCH_<id>.json``
at the repo root (one file per bench id, schema
``{"bench": ..., "metrics": {...}, "timestamp": ...}``) so CI can archive
them without scraping text.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import re

import pytest

RESULTS = pathlib.Path(__file__).resolve().parent / "results.txt"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_report(path: pathlib.Path, title: str, lines) -> str:
    """Put the block ``== title ==`` + ``lines`` into the results file
    at ``path``: in place of the block with that header if there is one
    (further blocks under the same header are dropped), else at the end.
    Returns the block's text."""
    header = f"== {title} =="
    text = "\n".join([header, *(str(line) for line in lines)])
    old = path.read_text() if path.exists() else ""
    # a block runs from its header line to the next header line
    blocks = re.split(r"(?m)^(?=== .* ==$)", old)
    heads = [block.split("\n", 1)[0] for block in blocks]
    at = heads.index(header) if header in heads else len(blocks)
    blocks = [b for b, head in zip(blocks, heads) if head != header]
    blocks.insert(at, text + "\n\n")
    path.write_text("".join(blocks))
    return text


@pytest.fixture
def report():
    """Print a block and write it to benchmarks/results.txt."""

    def emit(title: str, lines) -> None:
        print("\n" + write_report(RESULTS, title, lines))

    return emit


def _plain(value):
    """NumPy scalars/arrays are not JSON serializable; coerce to
    built-ins so benches can pass metric values straight through."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "tolist"):  # np scalar or array
        return _plain(value.tolist())
    if hasattr(value, "item") and not isinstance(
        value, (bool, int, float, str)
    ):
        return value.item()
    return value


def write_bench_json(bench_id: str, metrics: dict) -> pathlib.Path:
    """Write/merge headline metrics into ``BENCH_<id>.json`` at the repo
    root.  Merging (rather than overwriting) lets one bench file report
    from several test functions; the file is rewritten whole each call so
    a crash mid-run never leaves truncated JSON."""
    metrics = _plain(metrics)
    path = REPO_ROOT / f"BENCH_{bench_id.upper()}.json"
    merged = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if existing.get("bench") == bench_id.upper():
                merged = existing.get("metrics", {})
        except (ValueError, OSError):
            merged = {}
    merged.update(metrics)
    payload = {
        "bench": bench_id.upper(),
        "metrics": merged,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def bench_json():
    """Emit machine-readable metrics: ``bench_json("s4", {...})``."""
    return write_bench_json


def pid_plant_diagram(blocks: int = 0):
    """The canonical closed loop used across C1/C2/S3, optionally padded
    with a chain of extra unity-gain blocks to scale model size."""
    from repro.dataflow import Diagram, FirstOrderLag, Gain, PID, Step, Sum

    d = Diagram(f"loop{blocks}")
    d.add(Step("ref", amplitude=1.0))
    d.add(Sum("err", signs="+-"))
    d.add(PID("pid", kp=3.0, ki=1.5, tf=0.5))
    d.add(FirstOrderLag("plant", tau=0.4))
    d.connect("ref.out", "err.in1")
    d.connect("err.out", "pid.in")
    previous = "pid.out"
    for index in range(blocks):
        d.add(Gain(f"pad{index}", k=1.0))
        d.connect(previous, f"pad{index}.in")
        previous = f"pad{index}.out"
    d.connect(previous, "plant.in")
    d.connect("plant.out", "err.in2")
    return d
