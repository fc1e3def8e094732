"""The HTTP front-end and client: submit/status/result/cancel/stream."""

from __future__ import annotations

import json
import os
import socket
import socketserver
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.cluster.client import ClusterClient, ClusterClientError
from repro.cluster.http import ClusterHTTPServer, json_safe, summarise_result
from repro.cluster.pool import ClusterConfig, WorkerPool
from repro.cluster.requests import (
    ClusterError, ClusterJobRequest, ClusterRejected,
)


@pytest.fixture(scope="module")
def cluster():
    """(pool, client) behind a live ephemeral-port HTTP server."""
    with tempfile.TemporaryDirectory(prefix="repro-http-") as root:
        pool = WorkerPool(Path(root), ClusterConfig(workers=2))
        server = ClusterHTTPServer(pool).start()
        client = ClusterClient(server.url)
        client.wait_ready()
        try:
            yield pool, client
        finally:
            server.stop()
            pool.shutdown()


def lag_request(**overrides):
    base = dict(
        kind="single_run", model="lag",
        params={"t_end": 0.4, "sync_interval": 0.05}, checkpoint=False,
    )
    base.update(overrides)
    return ClusterJobRequest(**base)


class TestEndpoints:
    def test_healthz_and_models(self, cluster):
        __, client = cluster
        assert client.healthz()
        assert {"cruise", "lag", "pendulum"} <= set(client.models())

    def test_submit_result_roundtrip(self, cluster):
        __, client = cluster
        job_id = client.submit(lag_request())
        status = client.result(job_id, timeout=60)
        assert status["state"] == "done"
        summary = status["result"]
        assert summary["type"] == "single_run"
        assert summary["t_final"] == pytest.approx(0.4)
        probe = summary["probes"]["y"]
        assert probe["rows"] > 0
        assert len(probe["times_crc32"]) == 8

    def test_stream_events_ndjson(self, cluster):
        __, client = cluster
        job_id = client.submit(lag_request())
        events = list(client.stream(job_id))
        kinds = [event["kind"] for event in events]
        assert kinds[-1] == "end"
        assert "progress" in kinds
        assert events[-1]["state"] == "done"

    def test_status_snapshot(self, cluster):
        __, client = cluster
        snapshot = client.status()
        assert len(snapshot["workers"]) == 2
        assert "steals" in snapshot and "migrations" in snapshot

    def test_cancel_over_http(self, cluster):
        __, client = cluster
        job_id = client.submit(ClusterJobRequest(
            kind="single_run", model="cruise",
            params={"t_end": 60.0, "sync_interval": 0.01},
            checkpoint=False,
        ))
        assert client.cancel(job_id)
        deadline_status = None
        for __ in range(600):
            deadline_status = client.job(job_id)
            if deadline_status["state"] in ("cancelled", "done"):
                break
            import time
            time.sleep(0.05)
        assert deadline_status["state"] == "cancelled"

    def test_unknown_job_404(self, cluster):
        __, client = cluster
        with pytest.raises(ClusterClientError) as excinfo:
            client.job("cj-999999")
        assert excinfo.value.status == 404

    def test_bad_request_400(self, cluster):
        __, client = cluster
        with pytest.raises(Exception) as excinfo:
            client.submit(ClusterJobRequest(
                kind="single_run", model="lag",
                params={"bogus_param": 1},
            ))
        assert "unknown single_run params" in str(excinfo.value)

    def test_rejection_maps_to_429(self, tmp_path):
        with WorkerPool(
            tmp_path, ClusterConfig(workers=1, queue_limit=1),
        ) as pool:
            with ClusterHTTPServer(pool) as server:
                client = ClusterClient(server.url)
                client.wait_ready()
                with pytest.raises(ClusterRejected) as excinfo:
                    for __ in range(20):
                        client.submit(ClusterJobRequest(
                            kind="single_run", model="cruise",
                            params={"t_end": 30.0}, checkpoint=False,
                        ))
                assert excinfo.value.reason == "queue_full"


def slow_request():
    """A job that runs for about a minute unless cancelled."""
    return ClusterJobRequest(
        kind="single_run", model="cruise",
        params={"t_end": 3600.0, "sync_interval": 0.01}, checkpoint=False,
    )


class TestLongPoll:
    def test_many_long_polls_do_not_delay_a_finished_result(self, cluster):
        # more long-polls on a slow job than the host has cores, each
        # parked on its own connection thread; a finished job's result
        # must not queue behind them
        __, client = cluster
        done_id = client.submit(lag_request())
        client.result(done_id, timeout=60)
        slow_id = client.submit(slow_request())
        pollers = (os.cpu_count() or 1) + 5

        def poll():
            try:
                return client.result(slow_id, timeout=20)["state"]
            except ClusterClientError as exc:
                return exc.status
            except ClusterError as exc:
                return str(exc)

        with ThreadPoolExecutor(pollers) as executor:
            polls = [executor.submit(poll) for __ in range(pollers)]
            time.sleep(0.5)  # every poll is parked on the server
            start = time.monotonic()
            status = client.result(done_id, timeout=30)
            elapsed = time.monotonic() - start
            cancelled = client.cancel(slow_id)
            outcomes = [future.result(timeout=60) for future in polls]
        assert status["state"] == "done"
        assert elapsed < 2.0, f"a finished result took {elapsed:.1f}s"
        assert cancelled, outcomes
        assert all("finished cancelled" in str(o) for o in outcomes), outcomes

    def test_timeout_still_answers_408(self, cluster):
        __, client = cluster
        slow_id = client.submit(slow_request())
        try:
            with pytest.raises(ClusterClientError) as excinfo:
                client.result(slow_id, timeout=0.2)
            assert excinfo.value.status == 408
            assert "still" in str(excinfo.value)
        finally:
            client.cancel(slow_id)


def raw_exchange(url: str, data: bytes) -> bytes:
    """Send ``data`` on one connection, half-close it, and return
    everything the server answers."""
    split = urlsplit(url)
    with socket.create_connection(
        (split.hostname, split.port), timeout=10,
    ) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        answer = b""
        while True:
            try:
                piece = sock.recv(65536)
            except ConnectionResetError:
                return answer  # the server closed with our bytes unread
            if not piece:
                return answer
            answer += piece


def status_of(answer: bytes) -> int:
    return int(answer.split(b" ", 2)[1])


class TestWireEdges:
    def test_request_line_over_64_kib_is_400(self, cluster):
        __, client = cluster
        path = "/jobs/" + "x" * (64 * 1024)
        answer = raw_exchange(
            f"http://{client.host}:{client.port}",
            f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii"),
        )
        assert status_of(answer) == 400
        assert b"too long" in answer

    def test_short_body_is_400(self, cluster):
        __, client = cluster
        answer = raw_exchange(
            f"http://{client.host}:{client.port}",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
        )
        assert status_of(answer) == 400
        assert b"shorter than Content-Length" in answer

    @pytest.mark.parametrize(
        "value", ["ten", "-1", str(8 * 1024 * 1024 + 1)],
    )
    def test_bad_content_length_is_400(self, cluster, value):
        __, client = cluster
        answer = raw_exchange(
            f"http://{client.host}:{client.port}",
            f"POST /jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
            .encode("ascii"),
        )
        assert status_of(answer) == 400
        assert b"bad Content-Length" in answer

    def test_stream_events_spanning_chunks_decode_intact(self):
        events = [
            {"kind": "progress", "seq": i, "payload": {"pad": "y" * 37 * i}}
            for i in range(20)
        ]
        body = b"".join(
            json.dumps(event).encode("utf-8") + b"\n" for event in events
        )
        # 7-byte chunks: every event spans several of them
        chunks = [body[i:i + 7] for i in range(0, len(body), 7)]
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def serve() -> None:
                conn, __ = listener.accept()
                with conn:
                    request = b""
                    while b"\r\n\r\n" not in request:
                        request += conn.recv(4096)
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Transfer-Encoding: chunked\r\n\r\n"
                    )
                    for chunk in chunks:
                        conn.sendall(b"%x\r\n%b\r\n" % (len(chunk), chunk))
                    conn.sendall(b"0\r\n\r\n")

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            port = listener.getsockname()[1]
            decoded = list(
                ClusterClient(f"http://127.0.0.1:{port}").stream("cj-1")
            )
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert decoded == events

    def test_listener_reuses_its_address_and_queues_a_burst(self, cluster):
        pool, __ = cluster
        with ClusterHTTPServer(pool) as server:
            listener = server._server
            assert listener.socket.getsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR,
            )
            assert listener.request_queue_size >= 100
        # set on the server's own class, not on socketserver's
        assert not socketserver.TCPServer.allow_reuse_address

    def test_serves_an_ipv6_host(self, cluster):
        pool, __ = cluster
        try:
            server = ClusterHTTPServer(pool, host="::1").start()
        except OSError as exc:  # no IPv6 loopback on this host
            pytest.skip(f"cannot bind ::1: {exc}")
        try:
            assert server.url == f"http://[::1]:{server.port}"
            assert ClusterClient(server.url).healthz()
        finally:
            server.stop()

    def test_stop_returns_while_long_polls_are_parked(self, cluster):
        pool, __ = cluster
        server = ClusterHTTPServer(pool).start()
        client = ClusterClient(server.url)
        slow_id = client.submit(slow_request())
        outcomes = []

        def poll() -> None:
            try:
                client.result(slow_id, timeout=30)
            except ClusterError as exc:
                outcomes.append(str(exc))

        pollers = [threading.Thread(target=poll) for __ in range(4)]
        for poller in pollers:
            poller.start()
        time.sleep(0.5)  # every poll is parked on the server
        start = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - start
        # the parked polls still answer once their job finishes
        assert pool.cancel(slow_id)
        for poller in pollers:
            poller.join(timeout=30)
        assert not any(poller.is_alive() for poller in pollers)
        assert elapsed < 1.0, f"stop() took {elapsed:.2f}s"
        assert len(outcomes) == 4
        assert all("finished cancelled" in o for o in outcomes), outcomes


class TestSummaries:
    def test_json_safe_arrays(self):
        small = np.arange(3, dtype=float)
        big = np.arange(1000, dtype=float)
        assert json_safe(small) == [0.0, 1.0, 2.0]
        summary = json_safe(big)
        assert summary["__array__"] and summary["shape"] == [1000]
        assert json_safe(np.float64(2.5)) == 2.5
        assert json_safe(float("nan")) is None
        assert json_safe({"k": (1, 2)}) == {"k": [1, 2]}

    def test_digest_is_bitwise(self):
        from repro.cluster.http import _digest

        a = np.linspace(0.0, 1.0, 257)
        b = a.copy()
        assert _digest(a) == _digest(b)
        b[200] = np.nextafter(b[200], 2.0)  # one ulp
        assert _digest(a) != _digest(b)

    def test_summarise_unknown_type(self):
        summary = summarise_result(object())
        assert summary["type"] == "object"
