"""WorkerPool scheduling: requests, results, cancel, admission."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster.pool import ClusterConfig, WorkerPool
from repro.cluster.requests import (
    ClusterError, ClusterJobRequest, ClusterRejected, build_spec,
)
from repro.service import SimulationService, telemetry
from repro.service.jobs import JobCancelledError, JobError, JobState


def slow_request(**overrides):
    """A cruise run of about a minute unless cancelled."""
    base = dict(
        kind="single_run", model="cruise",
        params={"t_end": 60.0, "sync_interval": 0.01}, checkpoint=False,
    )
    base.update(overrides)
    return ClusterJobRequest(**base)


def in_flight_by_scan(pool):
    """Each client's unfinished jobs, counted over every handle."""
    counts = {}
    for handle in pool.jobs():
        if not handle.state.terminal:
            client = handle.request.client
            counts[client] = counts.get(client, 0) + 1
    return counts


def assert_count_is_scan(pool):
    with pool._lock:
        assert pool._in_flight == in_flight_by_scan(pool)


def lag_request(**overrides):
    base = dict(
        kind="single_run", model="lag",
        params={"t_end": 0.3}, checkpoint=False,
    )
    base.update(overrides)
    return ClusterJobRequest(**base)


class TestRequests:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ClusterError, match="unknown job kind"):
            ClusterJobRequest(kind="nope", model="lag").validate()

    def test_unknown_param_rejected(self):
        with pytest.raises(ClusterError, match="unknown single_run params"):
            lag_request(params={"t_end": 1.0, "bogus": 2}).validate()

    def test_missing_model_rejected(self):
        with pytest.raises(ClusterError, match="needs a model"):
            ClusterJobRequest(kind="batch").validate()

    def test_dict_roundtrip(self):
        request = lag_request(client="c1", deadline=5.0, name="r")
        clone = ClusterJobRequest.from_dict(request.to_dict())
        assert clone == request

    def test_from_dict_unknown_field(self):
        with pytest.raises(ClusterError, match="unknown request fields"):
            ClusterJobRequest.from_dict({"kind": "single_run", "moo": 1})


class TestExecution:
    def test_single_run_roundtrip(self, pool2):
        handle = pool2.submit(lag_request())
        result = handle.result(timeout=60)
        assert result.t_final == pytest.approx(0.3)
        assert "y" in result.probes
        assert handle.state.value == "done"

    def test_realtime_pacing_floors_wall_time(self, pool2):
        """SIL pacing: wall ≥ sim/factor, trajectory bitwise free-run."""
        import numpy as np

        free = pool2.submit(lag_request()).result(timeout=60)
        started = time.monotonic()
        paced = pool2.submit(lag_request(
            params={"t_end": 0.3, "realtime_factor": 1.0},
        )).result(timeout=60)
        elapsed = time.monotonic() - started
        assert elapsed >= 0.25, f"pacing did not slow the run: {elapsed}"
        assert np.array_equal(
            free.probes["y"].states, paced.probes["y"].states,
        )
        assert np.array_equal(
            free.probes["y"].times, paced.probes["y"].times,
        )

    def test_batch_roundtrip(self, pool2):
        request = ClusterJobRequest(
            kind="batch", model="pendulum",
            params={"n": 4, "t_end": 0.2, "h": 1e-3},
            checkpoint=False,
        )
        result = pool2.submit(request).result(timeout=60)
        assert result.n == 4
        # the worker's run is the in-process run of the same spec
        with SimulationService(workers=1) as service:
            local = service.submit(
                build_spec(request, "local"),
            ).result(timeout=60)
        assert np.array_equal(result.t, local.t)
        assert result.series.keys() == local.series.keys()
        for label, series in local.series.items():
            assert np.array_equal(result.series[label], series)
        assert np.array_equal(result.final_states, local.final_states)

    def test_scenario_roundtrip(self, pool2):
        handle = pool2.submit(ClusterJobRequest(
            kind="scenario", params={"seed": 12345, "t_end": 0.05},
            checkpoint=False,
        ))
        outcome = handle.result(timeout=120)
        assert outcome.seed == 12345
        assert outcome.ok, outcome.detail

    def test_bad_model_fails_cleanly(self, pool2):
        handle = pool2.submit(lag_request(model="no-such-model"))
        with pytest.raises(JobError, match="unknown model"):
            handle.result(timeout=60)
        assert handle.state.value == "failed"

    def test_jobs_spread_over_workers(self, pool2):
        handles = [pool2.submit(lag_request()) for __ in range(8)]
        for handle in handles:
            handle.result(timeout=60)
        status = pool2.status()
        done_per_worker = [w["jobs_done"] for w in status["workers"]]
        assert all(count > 0 for count in done_per_worker)

    def test_status_lists_the_store_outside_the_pool_lock(
        self, pool2, monkeypatch,
    ):
        # the store listing grows with every job ever run; dispatch,
        # completion and migration must not wait for it
        acquired = []

        def probe():
            if pool2._lock.acquire(timeout=2.0):
                pool2._lock.release()
                acquired.append(True)

        def stats():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            return {"jobs": 0}

        monkeypatch.setattr(pool2.store, "stats", stats)
        assert pool2.status()["store"] == {"jobs": 0}
        assert acquired == [True]

    def test_worker_events_forwarded(self, pool2):
        handle = pool2.submit(lag_request(
            params={"t_end": 0.3, "sync_interval": 0.05},
        ))
        handle.result(timeout=60)
        events = handle.channel.drain()
        kinds = {event.kind for event in events}
        assert telemetry.PROGRESS in kinds
        assert telemetry.BACKEND in kinds
        # the worker emits running, the coordinator the terminal state
        states = [
            event.payload["state"] for event in events
            if event.kind == telemetry.STATE
        ]
        assert states == ["running", "done"]

    def test_worker_metrics_merged(self, pool2):
        before = (
            pool2.metrics.snapshot()["counters"]
            .get("backend.used.interpreter", 0)
        )
        pool2.submit(lag_request()).result(timeout=60)
        after = (
            pool2.metrics.snapshot()["counters"]
            .get("backend.used.interpreter", 0)
        )
        assert after == before + 1

    def test_cancel_running_job(self, pool2):
        handle = pool2.submit(ClusterJobRequest(
            kind="single_run", model="cruise",
            params={"t_end": 60.0, "sync_interval": 0.01},
            checkpoint=False,
        ))
        deadline = time.monotonic() + 30
        while handle.worker is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool2.cancel(handle.id)
        with pytest.raises(JobCancelledError):
            handle.result(timeout=60)

    def test_handle_cancel_reaches_the_running_worker(self, pool2):
        handle = pool2.submit(slow_request())
        deadline = time.monotonic() + 30
        while handle.state is not JobState.RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pool2._lock:
            epoch = pool2._envelopes[handle.id].epoch
            cell = pool2._slots[handle.worker].cancel_cell
        assert handle.cancel()
        # the running job's worker reads its epoch from the cancel cell
        assert cell.value == epoch
        assert handle.wait(timeout=60)
        assert handle.state is JobState.CANCELLED
        assert handle.attempts == 1
        assert not handle.cancel()

    def test_wait_returns_after_the_terminal_event(self, pool2):
        handle = pool2.submit(lag_request())
        assert handle.wait(timeout=60)
        assert handle.channel.closed
        last = handle.channel.peek_latest()
        assert last.kind == telemetry.STATE
        assert last.payload == {"state": "done", "error": None}

    def test_deadline_timeout(self, pool2):
        handle = pool2.submit(ClusterJobRequest(
            kind="single_run", model="cruise",
            params={"t_end": 60.0, "sync_interval": 0.01},
            deadline=0.3, checkpoint=False,
        ))
        assert handle.wait(timeout=60)
        assert handle.state.value == "timeout"


class TestAdmissionControl:
    def test_queue_limit_sheds(self, tmp_path):
        with WorkerPool(
            tmp_path, ClusterConfig(workers=1, queue_limit=2),
        ) as pool:
            submitted = []
            with pytest.raises(ClusterRejected) as excinfo:
                for __ in range(30):
                    submitted.append(pool.submit(ClusterJobRequest(
                        kind="single_run", model="cruise",
                        params={"t_end": 30.0}, checkpoint=False,
                    )))
            assert excinfo.value.reason == "queue_full"
            counters = pool.metrics.snapshot()["counters"]
            assert counters["cluster.rejected.queue_full"] >= 1

    def test_per_client_quota(self, tmp_path):
        with WorkerPool(
            tmp_path,
            ClusterConfig(workers=1, queue_limit=0, per_client_limit=2),
        ) as pool:
            for __ in range(2):
                pool.submit(ClusterJobRequest(
                    kind="single_run", model="cruise",
                    params={"t_end": 30.0}, client="greedy",
                    checkpoint=False,
                ))
            with pytest.raises(ClusterRejected) as excinfo:
                pool.submit(ClusterJobRequest(
                    kind="single_run", model="cruise",
                    params={"t_end": 30.0}, client="greedy",
                    checkpoint=False,
                ))
            assert excinfo.value.reason == "client_quota"
            # a different client still gets in
            other = pool.submit(lag_request(client="modest"))
            other.result(timeout=60)

    def test_failed_job_leaves_cost_model_alone(self, tmp_path):
        # only DONE jobs calibrate the cost model, as on the engine
        with WorkerPool(tmp_path, ClusterConfig(workers=1)) as pool:
            handle = pool.submit(lag_request(model="no-such-model"))
            with pytest.raises(JobError, match="unknown model"):
                handle.result(timeout=60)
            assert "single_run" not in pool.admission.cost_model.snapshot()

    def test_deadline_infeasible_rejected(self, tmp_path):
        with WorkerPool(tmp_path, ClusterConfig(workers=1)) as pool:
            # seed the cost model as if jobs took 10s each; a 0.1s
            # deadline behind a queue is then predictably hopeless
            pool.admission.cost_model.observe("single_run", 10.0)
            assert pool.status()["cost_model"]["*"] == 10.0
            pool.submit(ClusterJobRequest(
                kind="single_run", model="cruise",
                params={"t_end": 30.0}, checkpoint=False,
            ))
            with pytest.raises(ClusterRejected) as excinfo:
                pool.submit(lag_request(deadline=0.1))
            assert excinfo.value.reason == "deadline_infeasible"


class TestInFlightCount:
    def test_count_tracks_every_terminal_path(self, tmp_path):
        with WorkerPool(
            tmp_path, ClusterConfig(workers=1, per_client_limit=3),
        ) as pool:
            moving = pool.submit(ClusterJobRequest(
                kind="single_run", model="cruise", client="a",
                params={"t_end": 3.0, "sync_interval": 0.01,
                        "checkpoint_every_steps": 40},
            ))
            # queued behind ``moving`` on the one worker: its deadline
            # lapses before dispatch (admitted cold, no cost estimate)
            late = pool.submit(lag_request(client="b", deadline=0.2))
            cancelled = pool.submit(slow_request(client="b"))
            failed = pool.submit(lag_request(client="a", model="nope"))
            assert_count_is_scan(pool)
            assert pool._in_flight == {"a": 2, "b": 2}
            assert pool.cancel(cancelled.id)
            assert_count_is_scan(pool)
            deadline = time.monotonic() + 60
            while not pool.store.checkpoints(moving.id):
                assert time.monotonic() < deadline, "no checkpoint spooled"
                time.sleep(0.01)
            pool.kill_worker(0)
            done = pool.submit(lag_request(client="a"))
            assert_count_is_scan(pool)
            for handle in (moving, late, failed, done):
                assert handle.wait(timeout=120)
            assert moving.migrations == 1
            assert [h.state for h in (moving, late, cancelled, failed, done)] \
                == [JobState.DONE, JobState.TIMEOUT, JobState.CANCELLED,
                    JobState.FAILED, JobState.DONE]
            assert_count_is_scan(pool)
            assert pool._in_flight == {}

            greedy = [
                pool.submit(slow_request(client="greedy")) for __ in range(3)
            ]
            with pytest.raises(ClusterRejected) as excinfo:
                pool.submit(slow_request(client="greedy"))
            assert excinfo.value.reason == "client_quota"
            assert pool.cancel(greedy[-1].id)
            greedy[-1] = pool.submit(slow_request(client="greedy"))
            assert_count_is_scan(pool)
            assert pool._in_flight == {"greedy": 3}
        assert pool._in_flight == {}
        assert all(h.state is JobState.CANCELLED for h in greedy)

    def test_concurrent_submits_and_cancels_keep_the_count(self, pool2):
        # more submitting threads than cores, switching every microsecond
        clients = [f"churn-{i}" for i in range(3)]

        def churn(client):
            for __ in range(10):
                pool2.cancel(pool2.submit(slow_request(client=client)).id)

        threads = [
            threading.Thread(target=churn, args=(clients[i % 3],))
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert_count_is_scan(pool2)
        churned = [h for h in pool2.jobs() if h.request.client in clients]
        assert len(churned) == 80
        for handle in churned:
            assert handle.wait(timeout=60)
        assert not set(clients) & set(pool2._in_flight)

    def test_a_second_finish_counts_down_once(self, pool2):
        running = pool2.submit(slow_request(client="twice"))
        finished = pool2.submit(lag_request(client="twice"))
        finished.result(timeout=60)
        try:
            with pool2._lock:
                pool2._finish_job(finished, JobState.CANCELLED)
                assert pool2._in_flight["twice"] == 1
            assert finished.state is JobState.DONE
        finally:
            pool2.cancel(running.id)
        assert running.wait(timeout=60)
        assert "twice" not in pool2._in_flight
