"""The shared artifact/checkpoint store: one directory, any worker.

The cluster's durability substrate is a plain filesystem directory that
every worker process (and the coordinator) mounts.  It holds two kinds
of content:

* **Job checkpoint spools** — ``jobs/<job-id>/spool/`` is a
  :class:`~repro.resilience.CheckpointManager`-compatible spool.  Every
  snapshot inside is a CRC-verified ``REPROSNAP`` container carrying the
  job's opt-aware plan fingerprint, so *any* worker can resume *any*
  job: the resuming worker rebuilds the model from the job request,
  recomputes the same fingerprint, and the codec refuses a mismatched
  restore before touching state.  ``cas/<fingerprint>/<job-id>`` marker
  files index spools by content address — the coordinator writes them
  when it harvests a dead worker's spool, so "which jobs of this exact
  compiled plan are resumable?" is a directory listing.

* **Compiled artifacts** — ``artifacts/<k>/<key>.art`` is a
  cross-process content-addressed artifact cache with *single-compile*
  semantics: concurrent :meth:`ArtifactStore.get_or_compile` calls for
  one missing key elect exactly one compiler via an ``O_CREAT|O_EXCL``
  lock file (:mod:`repro._lockfile`, the election the native ``.so``
  builds use too); everyone else waits for the atomically-published
  artifact.
  Artifacts are CRC-framed, so a torn write is detected, dropped and
  recompiled rather than served.

Everything is written via the write-to-temp + ``os.replace`` discipline,
so a SIGKILL mid-write can never publish a truncated file under a valid
name — the property the kill-and-migrate test leans on.
"""

from __future__ import annotations

import json
import os
import pickle
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro._lockfile import ElectionTimeout, elect, release
from repro.resilience.checkpoint import SUFFIX
from repro.resilience.codec import Snapshot, SnapshotError, decode_snapshot

#: artifact container magic; header is ``REPROART <crc32> <len>\n``
ART_MAGIC = b"REPROART"


class ArtifactStoreError(Exception):
    """Raised on store misconfiguration or an unservable artifact."""


class ArtifactCorruptError(ArtifactStoreError):
    """An artifact failed its magic/CRC integrity checks."""


def encode_artifact(value: Any) -> bytes:
    """Frame a picklable value: magic + CRC-32 + length + payload."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    header = b"%s %08x %d\n" % (ART_MAGIC, crc, len(payload))
    return header + payload


def decode_artifact(data: bytes) -> Any:
    """Verify the frame and unpickle the payload (raises on corruption)."""
    newline = data.find(b"\n")
    if newline < 0 or not data.startswith(ART_MAGIC + b" "):
        raise ArtifactCorruptError("bad artifact header")
    try:
        __, crc_hex, length = data[:newline].split()
        want_crc = int(crc_hex, 16)
        want_len = int(length)
    except ValueError as exc:
        raise ArtifactCorruptError(f"unparsable artifact header: {exc}")
    payload = data[newline + 1:]
    if len(payload) != want_len:
        raise ArtifactCorruptError(
            f"artifact truncated: {len(payload)} != {want_len} bytes"
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != want_crc:
        raise ArtifactCorruptError("artifact CRC mismatch")
    return pickle.loads(payload)


class ArtifactStore:
    """Filesystem-backed shared store for checkpoints and artifacts.

    Safe for concurrent use from many processes on one filesystem: all
    cross-process coordination goes through atomic filesystem primitives
    (``O_EXCL`` lock creation, ``os.replace`` publication), never shared
    memory.  One instance per process is the expected shape; instances
    are cheap (no daemon threads, no open handles held).
    """

    def __init__(
        self,
        root,
        compile_timeout: float = 120.0,
        lock_stale_after: float = 60.0,
    ) -> None:
        if compile_timeout <= 0:
            raise ArtifactStoreError(
                f"compile_timeout must be positive: {compile_timeout}"
            )
        self.root = Path(root)
        self.compile_timeout = compile_timeout
        self.lock_stale_after = lock_stale_after
        self.jobs_dir = self.root / "jobs"
        self.cas_dir = self.root / "cas"
        self.artifacts_dir = self.root / "artifacts"
        for path in (self.jobs_dir, self.cas_dir, self.artifacts_dir):
            path.mkdir(parents=True, exist_ok=True)
        self.compiles = 0
        self.artifact_hits = 0
        self.lock_waits = 0
        self.corrupt_dropped = 0

    # ------------------------------------------------------------------
    # job spools
    # ------------------------------------------------------------------
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

        Corrupt candidates (torn writes, injected corruption) are
        skipped and counted, exactly like
        :meth:`~repro.resilience.CheckpointManager.load_latest`.
        """
        for path in reversed(self.checkpoints(job_id)):
            try:
                return path, decode_snapshot(path.read_bytes())
            except SnapshotError:
                self.corrupt_dropped += 1
                continue
        return None

    # ------------------------------------------------------------------
    # meta + content-address index
    # ------------------------------------------------------------------
    def write_meta(self, job_id: str, meta: Dict[str, Any]) -> Path:
        path = self.job_dir(job_id) / "meta.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    def read_meta(self, job_id: str) -> Dict[str, Any]:
        path = self.jobs_dir / job_id / "meta.json"
        if not path.is_file():
            return {}
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}

    def index_job(self, job_id: str) -> Optional[str]:
        """Harvest a job's fingerprint from its newest checkpoint and
        record the ``cas/<fingerprint>/<job-id>`` marker.

        Returns the fingerprint, or None when the spool holds no valid
        checkpoint yet.  Idempotent; called by workers after a run and
        by the coordinator when it migrates a dead worker's job.
        """
        latest = self.latest_checkpoint(job_id)
        if latest is None:
            return None
        path, snapshot = latest
        fingerprint = snapshot.fingerprint
        marker_dir = self.cas_dir / fingerprint
        marker_dir.mkdir(parents=True, exist_ok=True)
        (marker_dir / job_id).write_text(str(path) + "\n")
        meta = self.read_meta(job_id)
        meta.update({
            "fingerprint": fingerprint,
            "kind": snapshot.kind,
            "last_t": snapshot.t,
            "last_step": snapshot.step,
        })
        self.write_meta(job_id, meta)
        return fingerprint

    def jobs_for(self, fingerprint: str) -> List[str]:
        """Job ids indexed under one plan fingerprint."""
        marker_dir = self.cas_dir / fingerprint
        if not marker_dir.is_dir():
            return []
        return sorted(p.name for p in marker_dir.iterdir() if p.is_file())

    # ------------------------------------------------------------------
    # compiled-artifact CAS (cross-process single compile)
    # ------------------------------------------------------------------
    def _artifact_path(self, key: str) -> Path:
        safe = "".join(
            c if c.isalnum() or c in "-._" else "_" for c in key
        )
        shard = self.artifacts_dir / (safe[:2] or "00")
        shard.mkdir(parents=True, exist_ok=True)
        return shard / f"{safe}.art"

    def has_artifact(self, key: str) -> bool:
        return self._artifact_path(key).is_file()

    def load_artifact(self, key: str) -> Any:
        """Load and CRC-verify one artifact (raises when absent/corrupt)."""
        path = self._artifact_path(key)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ArtifactStoreError(
                f"no artifact for key {key!r}: {exc}"
            ) from exc
        return decode_artifact(data)

    def put_artifact(self, key: str, value: Any) -> Path:
        """Atomically publish an artifact (overwrites an existing one)."""
        path = self._artifact_path(key)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_bytes(encode_artifact(value))
        os.replace(tmp, path)
        return path

    def get_or_compile(self, key: str, factory: Callable[[], Any]) -> Any:
        """The cached artifact for ``key``, compiling at most once
        *across every process sharing this store directory*.

        The process that wins the ``<key>.lock`` election
        (:func:`repro._lockfile.elect`) runs the factory, publishes the
        artifact with an atomic rename, then removes the lock; everyone
        else polls for the artifact.  A lock older than
        ``lock_stale_after`` seconds is presumed orphaned (its owner was
        SIGKILLed mid-compile) and broken.  A corrupt resident artifact
        is dropped and recompiled instead of served.
        """
        path = self._artifact_path(key)
        lock = path.with_suffix(".lock")
        found: List[Any] = []

        def ready() -> bool:
            if not path.is_file():
                return False
            try:
                found.append(self.load_artifact(key))
            except ArtifactCorruptError:
                self.corrupt_dropped += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                return False
            self.artifact_hits += 1
            return True

        def waiting() -> None:
            self.lock_waits += 1

        try:
            won = elect(
                lock, ready, self.compile_timeout, self.lock_stale_after,
                on_wait=waiting,
            )
        except ElectionTimeout:
            raise ArtifactStoreError(
                f"timed out waiting {self.compile_timeout:g}s for "
                f"artifact {key!r} (lock {lock} held elsewhere)"
            ) from None
        if not won:
            return found[-1]
        try:
            value = factory()
            self.put_artifact(key, value)
            self.compiles += 1
            return value
        finally:
            release(lock)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "jobs": len(self.job_ids()),
            "compiles": self.compiles,
            "artifact_hits": self.artifact_hits,
            "lock_waits": self.lock_waits,
            "corrupt_dropped": self.corrupt_dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.root)!r})"
