"""Cross-process single-flight election over an ``O_EXCL`` lock file.

:func:`repro._lockfile.elect` is how processes sharing a directory
build an artifact once.  These cases need no compiler: the "artifact"
is a plain file, so the election runs in the compiler-free lanes too.
A lock older than ``stale_after`` is the orphan of a killed builder and
is broken; a live one makes waiters time out at the deadline.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro._lockfile import ElectionTimeout, elect, release

PROCESSES = 4


def hold(lock: Path, age: float = 0.0) -> None:
    """Leave ``lock`` as another process would, last written ``age``
    seconds ago."""
    lock.write_text("4242 0.0\n")
    if age:
        stamp = time.time() - age
        os.utime(lock, (stamp, stamp))


def never() -> bool:
    return False


def test_stale_lock_is_broken(tmp_path):
    lock = tmp_path / "key.lock"
    hold(lock, age=120.0)  # its builder was killed two minutes ago
    assert elect(lock, never, timeout=5.0, stale_after=60.0) is True
    assert lock.read_text().split()[0] == str(os.getpid())
    release(lock)
    assert not lock.exists()


def test_live_lock_times_out_at_the_deadline(tmp_path):
    lock = tmp_path / "key.lock"
    hold(lock)
    started = time.monotonic()
    with pytest.raises(ElectionTimeout, match="held elsewhere"):
        elect(lock, never, timeout=0.2, stale_after=60.0)
    assert 0.2 <= time.monotonic() - started < 5.0
    assert lock.exists()  # a live lock is never broken


def test_zero_timeout_makes_one_attempt(tmp_path):
    lock = tmp_path / "key.lock"
    looks = []

    def ready() -> bool:
        looks.append(True)
        return False

    assert elect(lock, ready, timeout=0, stale_after=60.0) is True
    release(lock)
    looks.clear()
    hold(lock)
    with pytest.raises(ElectionTimeout):
        elect(lock, ready, timeout=0, stale_after=60.0)
    assert looks == [True]


def test_ready_after_a_win_releases_the_lock(tmp_path):
    # the previous holder published between the first look and the grab
    lock = tmp_path / "key.lock"
    answers = iter([False, True])
    assert elect(
        lock, lambda: next(answers), timeout=5.0, stale_after=60.0,
    ) is False
    assert not lock.exists()


def test_on_wait_runs_once(tmp_path):
    lock = tmp_path / "key.lock"
    hold(lock)
    looks, waits = [], []

    def ready() -> bool:
        looks.append(True)
        return len(looks) >= 5

    assert elect(
        lock, ready, timeout=5.0, stale_after=60.0,
        on_wait=lambda: waits.append(True),
    ) is False
    assert len(looks) == 5
    assert waits == [True]
    assert lock.exists()  # still the other process's


def _elect_in_child(lock, artifact, barrier, results) -> None:
    lock, artifact = Path(lock), Path(artifact)
    barrier.wait(timeout=60)
    won = elect(lock, artifact.exists, timeout=60.0, stale_after=60.0)
    if won:
        time.sleep(0.2)  # the others arrive while the lock is held
        tmp = artifact.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(str(os.getpid()))
        os.replace(tmp, artifact)
        release(lock)
    results.put((os.getpid(), won, artifact.read_text()))


def test_spawned_processes_elect_one_builder(tmp_path):
    lock = tmp_path / "key.lock"
    artifact = tmp_path / "key.art"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(PROCESSES)
    results = ctx.Queue()
    procs = [
        ctx.Process(
            target=_elect_in_child,
            args=(str(lock), str(artifact), barrier, results),
        )
        for __ in range(PROCESSES)
    ]
    for proc in procs:
        proc.start()
    outcomes = [results.get(timeout=120) for __ in procs]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    winners = [pid for pid, won, __ in outcomes if won]
    assert len(winners) == 1
    # every loser saw the winner's artifact, not one of its own
    assert {content for __, __, content in outcomes} == {str(winners[0])}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["key.art"]
