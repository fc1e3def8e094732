"""The shared job-spool store: one directory, any worker.

The cluster's durability substrate is a plain filesystem directory that
every worker process (and the coordinator) mounts.  It holds each job's
checkpoint spool and nothing else: ``jobs/<job-id>/spool/`` is a
:class:`~repro.resilience.CheckpointManager`-compatible spool.  Every
snapshot inside is a CRC-verified ``REPROSNAP`` container carrying the
job's opt-aware plan fingerprint, so *any* worker can resume *any* job:
the resuming worker rebuilds the model from the job request, recomputes
the same fingerprint, and the codec refuses a mismatched restore before
touching state.

The checkpoint manager writes every snapshot to a temp file and
publishes it with ``os.replace``, so a SIGKILL mid-write can never
publish a truncated file under a valid name — the property the
kill-and-migrate test leans on.  Compiled kernels are not kept here:
native ``.so`` builds have their own content-addressed directory and
cross-process build election (:mod:`repro.core.backend.native`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.resilience.checkpoint import SUFFIX, CheckpointManager
from repro.resilience.codec import Snapshot


class ArtifactStore:
    """Filesystem-backed shared store of job checkpoint spools.

    Safe for concurrent use from many processes on one filesystem:
    checkpoints are published by atomic rename and CRC-verified when
    read, never coordinated through shared memory.  One instance per
    process is the expected shape; instances are cheap (no daemon
    threads, no open handles held).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.corrupt_dropped = 0

    def job_dir(self, job_id: str) -> Path:
        path = self.jobs_dir / job_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def job_spool(self, job_id: str) -> Path:
        """The CheckpointManager-compatible spool for one job."""
        spool = self.job_dir(job_id) / "spool"
        spool.mkdir(parents=True, exist_ok=True)
        return spool

    def job_ids(self) -> List[str]:
        if not self.jobs_dir.is_dir():
            return []
        return sorted(p.name for p in self.jobs_dir.iterdir() if p.is_dir())

    def checkpoints(self, job_id: str) -> List[Path]:
        """Checkpoint files for a job, oldest first."""
        return sorted((self.jobs_dir / job_id / "spool").glob(
            f"ckpt-*{SUFFIX}"
        ))

    def latest_checkpoint(
        self, job_id: str
    ) -> Optional[Tuple[Path, Snapshot]]:
        """The newest CRC-valid checkpoint of a job, or None.

        Read through
        :meth:`~repro.resilience.CheckpointManager.load_latest`, so
        corrupt candidates (torn writes, injected corruption) are
        skipped; they are counted in :attr:`corrupt_dropped`.
        """
        spool = self.jobs_dir / job_id / "spool"
        if not spool.is_dir():
            return None
        manager = CheckpointManager(spool)
        latest = manager.load_latest()
        self.corrupt_dropped += manager.corrupt_skipped
        return latest

    def stats(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "jobs": len(self.job_ids()),
            "corrupt_dropped": self.corrupt_dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.root)!r})"
