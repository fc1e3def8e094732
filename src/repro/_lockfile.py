"""Cross-process single-flight election over an ``O_EXCL`` lock file.

Every process that needs an artifact which does not exist yet calls
:func:`elect` with the artifact's lock path.  The first to create the
lock (``O_CREAT|O_EXCL``, atomic on a local filesystem) wins and builds;
everyone else polls until the artifact is ready.  A lock older than
``stale_after`` seconds is presumed orphaned (its owner was killed
mid-build) and broken, so a dead winner never blocks the others for
longer than that.

Used by the native backends' ``.so`` builds
(:mod:`repro.core.backend.native`), the one place where processes that
share a directory must build an artifact once.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Optional

#: seconds between two looks at a lock held elsewhere
POLL_S = 0.01


class ElectionTimeout(Exception):
    """Raised when the lock stayed held elsewhere past the deadline."""


def try_lock(lock: Path) -> bool:
    """Create ``lock`` exclusively, stamped with pid and wall time;
    False when it already exists."""
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    try:
        os.write(fd, f"{os.getpid()} {time.time()}\n".encode())
    finally:
        os.close(fd)
    return True


def release(lock: Path) -> None:
    """Remove a lock this process won (already gone is fine)."""
    try:
        lock.unlink()
    except OSError:
        pass


def break_if_stale(lock: Path, stale_after: float) -> None:
    """Delete ``lock`` when its last write is older than
    ``stale_after`` seconds."""
    try:
        age = time.time() - lock.stat().st_mtime
    except OSError:
        return  # already gone
    if age > stale_after:
        release(lock)


def elect(
    lock: Path,
    ready: Callable[[], bool],
    timeout: float,
    stale_after: float,
    on_wait: Optional[Callable[[], None]] = None,
) -> bool:
    """Wait until ``ready()`` or until this process holds ``lock``.

    Returns False once ``ready()`` is true, and True when this process
    won the lock: the caller then does the work and :func:`release`\\ s
    the lock.  ``ready()`` is asked again right after a win, because
    the previous holder may have published between the last look and
    the lock grab; a true answer then releases the lock and returns
    False.  ``on_wait`` runs once, the first time the lock is found held
    elsewhere.  ``timeout=0`` makes a single attempt.  Raises
    :class:`ElectionTimeout` when the lock is still held elsewhere at
    the deadline.
    """
    deadline = time.monotonic() + timeout
    waited = False
    while True:
        if ready():
            return False
        if try_lock(lock):
            if ready():
                release(lock)
                return False
            return True
        if not waited:
            waited = True
            if on_wait is not None:
                on_wait()
        break_if_stale(lock, stale_after)
        if time.monotonic() >= deadline:
            raise ElectionTimeout(
                f"timed out waiting {timeout:g}s for {lock} (held elsewhere)"
            )
        time.sleep(POLL_S)
