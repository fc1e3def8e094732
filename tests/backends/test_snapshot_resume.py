"""Checkpoint/resume through the uniform program surface.

``snapshot_state`` dicts are plain data, so they travel through the
resilience layer's :class:`Snapshot` container and the
:class:`CheckpointManager` spool (CRC-framed, atomically published)
unchanged — and a program restored in a *fresh* process position
continues bitwise identically to one that never stopped.  The grid is
binary-exact (``H = 1/512``) so the capture point is an exact double.
"""

import numpy as np
import pytest

from repro.core.backend import CompileRequest, compile_program, has_c_compiler
from repro.scenarios.synth import synth_dag
from repro.resilience import CheckpointManager, Snapshot
from repro.resilience.codec import SNAPSHOT_VERSION

H = 1.0 / 512.0
T_CUT = 0.375   # 192 exact steps
T_END = 0.75    # 384 exact steps

BACKENDS = ["interpreter", "compiled-python", "batch"]
if has_c_compiler():
    BACKENDS += ["native-c", "native-batch"]


def make_program(backend, cache_dir=None):
    request = CompileRequest(
        diagram=synth_dag(7, blocks=16, sampled=True),
        h=H,
        opt_level=1,
        cache_dir=cache_dir,
    )
    program = compile_program(request, backend)
    assert program.backend == backend
    return program


def spool_roundtrip(program, tmp_path):
    """Spool the program's cursor through a CheckpointManager and hand
    back the reloaded snapshot."""
    manager = CheckpointManager(tmp_path / "spool", every_steps=1)
    manager.write(Snapshot(
        version=SNAPSHOT_VERSION,
        fingerprint=program.fingerprint(),
        t=program.t,
        step=program._step,
        kind="backend-program",
        payload=program.snapshot_state(),
    ))
    loaded = manager.load_latest()
    assert loaded is not None
    __, snapshot = loaded
    return snapshot


@pytest.mark.parametrize("backend", BACKENDS)
def test_spooled_resume_is_bitwise(backend, tmp_path):
    full = make_program(backend, cache_dir=tmp_path / "cache").run(T_END)

    interrupted = make_program(backend, cache_dir=tmp_path / "cache")
    first = interrupted.run(T_CUT)
    snapshot = spool_roundtrip(interrupted, tmp_path)
    assert snapshot.kind == "backend-program"
    assert snapshot.t == T_CUT

    # a brand-new program (the "restarted process") picks the cursor up
    resumed = make_program(backend, cache_dir=tmp_path / "cache")
    assert snapshot.fingerprint == resumed.fingerprint()
    resumed.restore_state(snapshot.payload)
    assert resumed.t == T_CUT
    second = resumed.run(T_END)

    assert np.array_equal(
        full.t, np.concatenate([first.t, second.t[1:]])
    )
    for label in full.series:
        assert np.array_equal(
            full.series[label],
            np.concatenate([first.series[label], second.series[label][1:]]),
        ), label
    assert np.array_equal(full.final_state, second.final_state)


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_restore_same_program(backend, tmp_path):
    """Restoring over a further-advanced program rewinds it exactly."""
    program = make_program(backend, cache_dir=tmp_path / "cache")
    program.run(T_CUT)
    state = program.snapshot_state()
    expected = program.run(T_END)

    program.restore_state(state)
    assert program.t == T_CUT
    replayed = program.run(T_END)
    assert np.array_equal(expected.t, replayed.t)
    for label in expected.series:
        assert np.array_equal(
            expected.series[label], replayed.series[label]
        ), label
    assert np.array_equal(expected.final_state, replayed.final_state)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_replays_from_cold(backend, tmp_path):
    program = make_program(backend, cache_dir=tmp_path / "cache")
    first = program.run(T_CUT)
    program.reset()
    assert program.t == 0.0
    again = program.run(T_CUT)
    assert np.array_equal(first.t, again.t)
    for label in first.series:
        assert np.array_equal(first.series[label], again.series[label]), label
    assert np.array_equal(first.final_state, again.final_state)


def test_fingerprint_guards_cross_plan_restore(tmp_path):
    """A snapshot from a different plan is detectable before any state
    is overlaid — the same contract the scheduler codec enforces."""
    program = make_program("compiled-python")
    program.run(T_CUT)
    snapshot = spool_roundtrip(program, tmp_path)

    other = compile_program(
        CompileRequest(diagram=synth_dag(8, blocks=16), h=H, opt_level=1),
        "compiled-python",
    )
    assert snapshot.fingerprint != other.fingerprint()
