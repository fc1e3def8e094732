"""ArtifactStore: job spools and their corruption handling."""

from __future__ import annotations

from repro.cluster.store import ArtifactStore
from repro.resilience.codec import SNAPSHOT_VERSION, Snapshot, encode_snapshot


def _write_checkpoint(store, job_id, step):
    spool = store.job_spool(job_id)
    snapshot = Snapshot(
        version=SNAPSHOT_VERSION, fingerprint="fp-1",
        t=step * 0.01, step=step, kind="hybrid",
        payload={"threads": []},
    )
    path = spool / f"ckpt-{step:012d}.ckpt"
    path.write_bytes(encode_snapshot(snapshot))
    return path


class TestJobSpools:
    def test_latest_checkpoint_newest_valid(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _write_checkpoint(store, "job-1", 10)
        _write_checkpoint(store, "job-1", 20)
        path, snapshot = store.latest_checkpoint("job-1")
        assert snapshot.step == 20
        assert path.name == "ckpt-000000000020.ckpt"

    def test_latest_skips_torn_write(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _write_checkpoint(store, "job-1", 10)
        good = _write_checkpoint(store, "job-1", 20)
        torn = store.job_spool("job-1") / "ckpt-000000000030.ckpt"
        torn.write_bytes(good.read_bytes()[:40])  # SIGKILL mid-write
        __, snapshot = store.latest_checkpoint("job-1")
        assert snapshot.step == 20
        assert store.corrupt_dropped == 1

    def test_no_checkpoint_is_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.job_spool("job-empty")
        assert store.latest_checkpoint("job-empty") is None
        assert store.latest_checkpoint("job-unknown") is None
        assert store.job_ids() == ["job-empty"]

    def test_job_ids_listed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.job_dir("b")
        store.job_dir("a")
        assert store.job_ids() == ["a", "b"]
        assert store.stats()["jobs"] == 2
