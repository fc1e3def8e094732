"""A cached native kernel that will not load is rebuilt, not trusted.

A crash or a disk fault can leave a torn ``.so`` under a valid content
key.  Loading it counts as a cache miss: the artifact is renamed aside
and rebuilt once under the build lock, and the rebuilt kernel gives the
reference bits.  A compiler that writes junk demotes both native
backends, each with a reason.

Every load runs in a fresh interpreter: ``dlopen`` hands back a path
its process loaded before without reading the file again.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster.models import pendulum
from repro.core.backend import CompileRequest, compile_program
from repro.core.batch import simulate_sequential
from tests.backends.test_native_cache import make_counting_cc, needs_cc

SRC = Path(repro.__file__).resolve().parent.parent

RECORDS = ["pend.out", "pid.out"]
H = 1.0 / 512.0
T_END = 0.25
SWEEPS = {"pid.kp": [6.0, 8.0, 11.0]}

#: compiles and runs one backend in a fresh interpreter; prints what it
#: ran on and the demotion reasons, saves the trajectories
CHILD = f"""
import json, sys
import numpy as np
from repro.cluster.models import pendulum
from repro.core.backend import CompileRequest, compile_program

backend, cache, out = sys.argv[1:4]
events = []
program = compile_program(
    CompileRequest(
        diagram=pendulum(), records={RECORDS!r}, solver="rk4",
        h={H!r}, n=3, sweeps={SWEEPS!r}, cache_dir=cache,
    ),
    backend, emit=lambda **kw: events.append(kw),
)
result = program.run({T_END!r})
np.savez(
    out, t=result.t, final=result.final_state,
    **{{label: result.series[label] for label in {RECORDS!r}}},
)
print(json.dumps({{
    "backend": program.backend,
    "reasons": [event["reason"] for event in events],
}}))
"""

#: a ``$CC`` that exits 0 after writing junk where the object should go
JUNK_CC = """#!/bin/sh
while [ $# -gt 0 ]; do
    if [ "$1" = "-o" ]; then shift; printf 'not an object' > "$1"; fi
    shift
done
"""


def run_child(backend: str, cache: Path, out: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, backend, str(cache), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def tear(so_path: Path) -> None:
    """Replace an artifact with garbage by rename, as a crash or a disk
    fault leaves it."""
    torn = so_path.with_name(so_path.name + ".torn")
    torn.write_bytes(b"\x7fELF\x02\x01\x01 torn mid-write")
    os.replace(torn, so_path)


def reference(backend: str) -> dict:
    """The interpreter's trajectories (native-c) or the sequential
    reference's (native-batch).  The model is continuous: the
    sequential reference's sampled sync differs from the kernels'."""
    if backend == "native-c":
        result = compile_program(
            CompileRequest(
                diagram=pendulum(), records=RECORDS, solver="rk4", h=H,
            ),
            "interpreter",
        ).run(T_END)
        final = result.final_state
    else:
        result = simulate_sequential(
            pendulum, 3, T_END, solver="rk4", h=H, records=RECORDS,
            sweeps=SWEEPS,
        )
        final = result.final_states
    return {"t": result.t, "final": final, **result.series}


def assert_bitwise(saved: Path, expected: dict) -> None:
    got = np.load(saved)
    assert sorted(got.files) == sorted(expected)
    for key, values in expected.items():
        assert np.array_equal(got[key], values), key


@needs_cc
@pytest.mark.parametrize("backend", ["native-c", "native-batch"])
def test_torn_artifact_is_rebuilt_once(tmp_path, monkeypatch, backend):
    cc = make_counting_cc(tmp_path, monkeypatch)
    cache = tmp_path / "cache"
    built = run_child(backend, cache, tmp_path / "built.npz")
    assert built == {"backend": backend, "reasons": []}
    assert len(cc.runs()) == 1
    [so_path] = cache.glob("*.so")
    tear(so_path)

    rebuilt = run_child(backend, cache, tmp_path / "rebuilt.npz")
    assert rebuilt == {"backend": backend, "reasons": []}
    assert len(cc.runs()) == 2  # exactly one extra gcc run
    assert sorted(p.name for p in cache.iterdir()) == [
        f"{so_path.stem}.c", so_path.name,
    ]
    expected = reference(backend)
    assert_bitwise(tmp_path / "built.npz", expected)
    assert_bitwise(tmp_path / "rebuilt.npz", expected)

    # the rebuilt artifact is a plain cache hit from now on
    assert run_child(backend, cache, tmp_path / "again.npz")["reasons"] == []
    assert len(cc.runs()) == 2


@pytest.mark.parametrize(
    "backend, fallback",
    [("native-c", "compiled-python"), ("native-batch", "batch")],
)
def test_junk_compiler_demotes_with_a_reason(
    tmp_path, monkeypatch, backend, fallback,
):
    cc = tmp_path / "junk-cc"
    cc.write_text(JUNK_CC)
    cc.chmod(0o755)
    monkeypatch.setenv("CC", str(cc))
    monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
    outcome = run_child(backend, tmp_path / "cache", tmp_path / "out.npz")
    assert outcome["backend"] == fallback
    [reason] = outcome["reasons"]
    assert reason.startswith("could not load native artifact"), reason
