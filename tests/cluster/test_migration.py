"""Live job migration: SIGKILL a worker mid-run, resume elsewhere,
finish bitwise-identically to an uninterrupted run."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.cluster.pool import ClusterConfig, WorkerPool
from repro.cluster.requests import ClusterJobRequest
from repro.service import telemetry


def cruise_request(**params):
    merged = {
        "t_end": 3.0, "sync_interval": 0.01, "checkpoint_every_steps": 40,
    }
    merged.update(params)
    return ClusterJobRequest(
        kind="single_run", model="cruise", params=merged,
    )


def assert_bitwise(a, b):
    assert set(a.probes) == set(b.probes)
    for name in a.probes:
        assert np.array_equal(a.probes[name].times, b.probes[name].times)
        assert np.array_equal(a.probes[name].states, b.probes[name].states)
    assert a.t_final == b.t_final


def wait_for_checkpoint(pool, handle, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if handle.worker is not None and pool.store.checkpoints(handle.id):
            return
        time.sleep(0.01)
    raise AssertionError("job never spooled a checkpoint")


class TestMigration:
    def test_sigkill_migrates_bitwise(self, tmp_path):
        with WorkerPool(
            tmp_path / "ref", ClusterConfig(workers=1),
        ) as pool:
            reference = pool.submit(cruise_request()).result(timeout=120)

        with WorkerPool(
            tmp_path / "live", ClusterConfig(workers=2),
        ) as pool:
            handle = pool.submit(cruise_request())
            wait_for_checkpoint(pool, handle)
            victim = handle.worker
            pool.kill_worker(victim)
            result = handle.result(timeout=120)

            assert handle.migrations == 1
            assert handle.worker != victim  # resumed on the other worker
            assert handle.attempts == 2
            events = handle.channel.drain()
            kinds = [event.kind for event in events]
            assert telemetry.MIGRATED in kinds
            resumed = [e for e in events if e.kind == telemetry.RESUMED]
            assert resumed, "migrated attempt cold-started"
            assert resumed[0].payload["attempt"] == 2
            counters = pool.metrics.snapshot()["counters"]
            assert counters["cluster.migrations"] == 1
            assert counters["cluster.worker_deaths"] == 1
            assert counters["jobs.resumed"] == 1
            # the migration names the checkpoint the next attempt resumed
            [migrated] = [e for e in events if e.kind == telemetry.MIGRATED]
            __, newest = pool.store.latest_checkpoint(handle.id)
            assert migrated.payload["fingerprint"] == newest.fingerprint
            assert migrated.payload["resume_step"] == (
                resumed[0].payload["step"]
            )

        assert_bitwise(reference, result)

    def test_checkpoint_read_outside_the_pool_lock(
        self, tmp_path, monkeypatch,
    ):
        # the migration payload names the dead worker's newest
        # checkpoint; dispatch and completion must not wait for its
        # read and CRC decode
        acquired = []
        with WorkerPool(tmp_path, ClusterConfig(workers=2)) as pool:
            read = pool.store.latest_checkpoint

            def probe():
                if pool._lock.acquire(timeout=2.0):
                    pool._lock.release()
                    acquired.append(True)
                else:
                    acquired.append(False)

            def latest_checkpoint(job_id):
                thread = threading.Thread(target=probe)
                thread.start()
                thread.join(timeout=10)
                return read(job_id)

            monkeypatch.setattr(
                pool.store, "latest_checkpoint", latest_checkpoint,
            )
            handle = pool.submit(cruise_request())
            wait_for_checkpoint(pool, handle)
            pool.kill_worker(handle.worker)
            handle.result(timeout=120)

            assert handle.migrations == 1
            [migrated] = [
                e for e in handle.channel.drain()
                if e.kind == telemetry.MIGRATED
            ]
            assert migrated.payload["resume_step"] is not None
        assert acquired == [True]

    def test_migration_budget_exhausts(self, tmp_path):
        with WorkerPool(
            tmp_path,
            ClusterConfig(workers=1, max_migrations=0),
        ) as pool:
            handle = pool.submit(cruise_request(t_end=30.0))
            wait_for_checkpoint(pool, handle)
            pool.kill_worker(handle.worker)
            assert handle.wait(timeout=60)
            assert handle.state.value == "failed"
            assert "migration budget" in handle.error

    def test_respawn_keeps_capacity(self, tmp_path):
        with WorkerPool(tmp_path, ClusterConfig(workers=2)) as pool:
            handle = pool.submit(cruise_request())
            wait_for_checkpoint(pool, handle)
            pool.kill_worker(handle.worker)
            handle.result(timeout=120)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status = pool.status()
                if all(w["alive"] for w in status["workers"]):
                    break
                time.sleep(0.05)
            assert all(w["alive"] for w in pool.status()["workers"])
            # the respawned worker still takes jobs
            again = pool.submit(ClusterJobRequest(
                kind="single_run", model="lag", params={"t_end": 0.2},
                checkpoint=False,
            ))
            again.result(timeout=60)
