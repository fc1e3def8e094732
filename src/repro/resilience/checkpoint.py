"""Checkpoint manager: periodic, atomic, bounded snapshot spooling.

A :class:`CheckpointManager` owns one *spool directory* and the policy of
when to write into it.  Attached to a scheduler it rides the existing
``on_major_step`` observer hook — checkpointing is purely passive, so an
observed run stays numerically identical to an unobserved one — and
writes a snapshot whenever the configured interval (major steps,
simulated time or wall time) has elapsed.

Durability contract:

* every write goes to a ``*.tmp`` sibling first and is published with an
  atomic ``os.replace`` — a crash mid-write can never leave a truncated
  file under a valid checkpoint name;
* retention is bounded (``keep`` newest checkpoints; older ones are
  pruned after each successful write);
* :meth:`load_latest` walks the spool newest-first and CRC-verifies each
  candidate, silently skipping corrupt or foreign files — a torn disk or
  an injected corruption costs one checkpoint interval, never the run.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.resilience.codec import (
    Snapshot, SnapshotCodec, SnapshotError, decode_snapshot,
    encode_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hybrid import HybridScheduler
    from repro.service.telemetry import MetricsRegistry

#: checkpoint file suffix inside a spool directory (the package exports
#: it as ``CHECKPOINT_SUFFIX``)
SUFFIX = CHECKPOINT_SUFFIX = ".ckpt"


class CheckpointError(SnapshotError):
    """Raised on checkpoint-manager misconfiguration."""


class CheckpointManager:
    """Spool-directory checkpointing with bounded retention.

    Parameters
    ----------
    spool_dir:
        Directory holding the checkpoints (created if missing).
    every_steps:
        Write every N major steps (None: disabled).
    every_sim_time:
        Write every ``dt`` of simulated time (None: disabled).
    every_wall_time:
        Write every ``dt`` wall-clock seconds (None: disabled).
    keep:
        Newest checkpoints retained; older ones are pruned.
    codec:
        Snapshot codec (a default one if omitted).
    metrics:
        Optional :class:`~repro.service.telemetry.MetricsRegistry`;
        save counts, sizes and durations are recorded under
        ``checkpoint.*`` names.
    """

    def __init__(
        self,
        spool_dir,
        every_steps: Optional[int] = 100,
        every_sim_time: Optional[float] = None,
        every_wall_time: Optional[float] = None,
        keep: int = 3,
        codec: Optional[SnapshotCodec] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1: {keep}")
        if every_steps is not None and every_steps < 1:
            raise CheckpointError(f"every_steps must be >= 1: {every_steps}")
        if every_sim_time is not None and every_sim_time <= 0:
            raise CheckpointError(
                f"every_sim_time must be positive: {every_sim_time}"
            )
        if every_wall_time is not None and every_wall_time <= 0:
            raise CheckpointError(
                f"every_wall_time must be positive: {every_wall_time}"
            )
        if every_steps is None and every_sim_time is None \
                and every_wall_time is None:
            raise CheckpointError(
                "at least one checkpoint interval must be set"
            )
        self.spool = Path(spool_dir)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.every_steps = every_steps
        self.every_sim_time = every_sim_time
        self.every_wall_time = every_wall_time
        self.keep = keep
        self.codec = codec if codec is not None else SnapshotCodec()
        self.metrics = metrics
        self.saves = 0
        self.bytes_written = 0
        self.corrupt_skipped = 0
        self.last_path: Optional[Path] = None
        self._last_step: Optional[int] = None
        self._last_sim_t: Optional[float] = None
        self._last_wall = time.monotonic()

    # ------------------------------------------------------------------
    # periodic capture
    # ------------------------------------------------------------------
    def attach(self, scheduler: "HybridScheduler") -> None:
        """Chain onto the scheduler's ``on_major_step`` observer."""
        inner = scheduler.on_major_step

        def observe(t_now: float) -> None:
            if inner is not None:
                inner(t_now)
            self.maybe_save(scheduler)

        scheduler.on_major_step = observe

    def due(self, scheduler: "HybridScheduler") -> bool:
        """True if any configured interval has elapsed since last save."""
        if self.every_steps is not None:
            last = self._last_step
            if last is None:
                if scheduler.major_steps >= self.every_steps:
                    return True
            elif scheduler.major_steps - last >= self.every_steps:
                return True
        if self.every_sim_time is not None:
            t = scheduler.model.time.raw
            last_t = self._last_sim_t
            if last_t is None:
                last_t = 0.0
            if t - last_t >= self.every_sim_time - 1e-12:
                return True
        if self.every_wall_time is not None:
            if time.monotonic() - self._last_wall >= self.every_wall_time:
                return True
        return False

    def maybe_save(self, scheduler: "HybridScheduler") -> Optional[Path]:
        """Save a checkpoint if one is due; returns the path if written."""
        if not self.due(scheduler):
            return None
        return self.save(scheduler)

    def save(self, scheduler: "HybridScheduler") -> Path:
        """Capture and atomically write a checkpoint now."""
        started = time.perf_counter()
        snapshot = self.codec.capture(scheduler)
        path = self.write(snapshot)
        self._last_step = scheduler.major_steps
        self._last_sim_t = scheduler.model.time.raw
        self._last_wall = time.monotonic()
        if self.metrics is not None:
            self.metrics.counter("checkpoint.saves").inc()
            self.metrics.histogram("checkpoint.save_seconds").observe(
                time.perf_counter() - started
            )
        return path

    def note_restore(self, scheduler: "HybridScheduler") -> None:
        """Restart the interval clocks after a restore, so the first
        post-resume checkpoint lands one full interval later instead of
        immediately re-saving the state that was just loaded."""
        self._last_step = scheduler.major_steps
        self._last_sim_t = scheduler.model.time.raw
        self._last_wall = time.monotonic()

    def write(self, snapshot: Snapshot) -> Path:
        """Atomically publish an already-captured snapshot."""
        data = encode_snapshot(snapshot)
        path = self.spool / f"ckpt-{snapshot.step:012d}{SUFFIX}"
        tmp = path.with_suffix(SUFFIX + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        self.saves += 1
        self.bytes_written += len(data)
        self.last_path = path
        if self.metrics is not None:
            self.metrics.histogram("checkpoint.bytes").observe(len(data))
        self.prune()
        return path

    # ------------------------------------------------------------------
    # spool inspection and recovery
    # ------------------------------------------------------------------
    def checkpoints(self) -> List[Path]:
        """Checkpoint files oldest-first (tmp files excluded)."""
        return sorted(self.spool.glob(f"ckpt-*{SUFFIX}"))

    def prune(self) -> int:
        """Delete all but the ``keep`` newest checkpoints."""
        files = self.checkpoints()
        removed = 0
        for path in files[:-self.keep] if len(files) > self.keep else []:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def load(self, path) -> Snapshot:
        """Decode one checkpoint file (raises on corruption)."""
        return decode_snapshot(Path(path).read_bytes())

    def load_latest(self) -> Optional[Tuple[Path, Snapshot]]:
        """The newest checkpoint that passes integrity checks, or None.

        Corrupt candidates are skipped (counted in
        :attr:`corrupt_skipped`), so a torn or injected-corrupt newest
        file falls back to the previous interval instead of failing the
        resume.
        """
        for path in reversed(self.checkpoints()):
            try:
                snapshot = self.load(path)
            except SnapshotError:
                self.corrupt_skipped += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "checkpoint.corrupt_skipped"
                    ).inc()
                continue
            return path, snapshot
        return None
