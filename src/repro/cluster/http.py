"""The cluster's threaded HTTP front-end (stdlib only, no frameworks).

A deliberately small HTTP/1.1 server over
:class:`socketserver.ThreadingTCPServer` — request line, headers,
``Content-Length`` body, one request per connection and one daemon
thread per connection — because the cluster API needs exactly six
verbs:

========  ==========================  =====================================
method    path                        meaning
========  ==========================  =====================================
POST      ``/jobs``                   submit a :class:`ClusterJobRequest`
                                      (JSON body) → ``202 {"id": …}``;
                                      shed requests get ``429`` with the
                                      admission reason
GET       ``/jobs``                   every known job's status snapshot
GET       ``/jobs/<id>``              one job's status snapshot
GET       ``/jobs/<id>/result``       block (``?timeout=``) for the result
                                      and return its JSON summary — array
                                      payloads are digested (CRC-32), not
                                      shipped, which is what lets a remote
                                      harness assert bitwise equality
POST      ``/jobs/<id>/cancel``       cooperative cancel
GET       ``/jobs/<id>/events``       chunked NDJSON live-stream of the
                                      job's telemetry channel until it
                                      closes (the bridge from the worker's
                                      forwarded events to the network)
GET       ``/status``                 pool snapshot (workers, queues,
                                      steals, migrations, store stats)
GET       ``/models``                 registered model names
GET       ``/healthz``                liveness probe
========  ==========================  =====================================

A result long-poll waits on the job handle, and an event stream pops
the job's channel, each in its own connection's thread, so a parked
poll holds nothing any other request waits for.  Threads are the
library's one concurrency model: this module loads no event loop, and
plain HTTP on a socket needs no TLS stack.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import zlib
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.cluster.pool import ClusterJobHandle, WorkerPool
from repro.cluster.requests import (
    ClusterError, ClusterJobRequest, ClusterRejected, registered_models,
)

#: arrays at most this long are inlined into JSON; longer ones are
#: summarised (shape, dtype, CRC-32 digest, endpoints)
INLINE_ARRAY_LIMIT = 64


def _digest(array: np.ndarray) -> str:
    """A stable CRC-32 hex digest of an array's raw bytes."""
    data = np.ascontiguousarray(array)
    return format(zlib.crc32(data.tobytes()) & 0xFFFFFFFF, "08x")


def json_safe(value: Any) -> Any:
    """Recursively convert a telemetry/result payload to JSON types."""
    if isinstance(value, np.ndarray):
        if value.size <= INLINE_ARRAY_LIMIT:
            return [json_safe(v) for v in value.tolist()]
        return {
            "__array__": True,
            "shape": list(value.shape),
            "dtype": str(value.dtype),
            "crc32": _digest(value),
        }
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, float) and (value != value):  # NaN
        return None
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    return repr(value)


def summarise_result(result: Any) -> Dict[str, Any]:
    """A JSON summary of a job result: shapes, endpoints and CRC-32
    digests instead of bulk arrays — compact on the wire, yet strong
    enough for a remote client to assert bitwise equality of runs."""
    if result is None:
        return {"type": "none"}
    name = type(result).__name__
    if name == "SingleRunResult":
        probes = {}
        for probe, trajectory in result.probes.items():
            times = np.asarray(trajectory.times)
            states = np.asarray(trajectory.states)
            probes[probe] = {
                "rows": int(times.shape[0]),
                "t_last": None if times.size == 0 else float(times[-1]),
                "last": None if states.size == 0 else json_safe(
                    np.asarray(states[-1]).ravel()[:8]
                ),
                "times_crc32": _digest(times),
                "states_crc32": _digest(states),
            }
        return {
            "type": "single_run",
            "t_final": float(result.t_final),
            "probes": probes,
            "stats": json_safe(getattr(result, "stats", {})),
        }
    if name == "BatchResult":
        series = {}
        for label, matrix in result.series.items():
            series[label] = {
                "shape": list(np.asarray(matrix).shape),
                "crc32": _digest(np.asarray(matrix)),
            }
        return {
            "type": "batch",
            "n": int(result.n),
            "rows": int(np.asarray(result.t).shape[0]),
            "t_crc32": _digest(np.asarray(result.t)),
            "final_states_crc32": _digest(np.asarray(result.final_states)),
            "series": series,
        }
    if hasattr(result, "to_dict"):
        return {"type": name, **json_safe(result.to_dict())}
    return {"type": name, "repr": repr(result)}


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(message)


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    429: "Too Many Requests", 500: "Internal Server Error",
}

#: the longest request or header line accepted, in bytes
MAX_LINE = 64 * 1024
#: the most header lines one request may carry
MAX_HEADERS = 100
#: the largest request body accepted, in bytes
MAX_BODY = 8 * 1024 * 1024
#: seconds a connection may stall while its request is read
READ_TIMEOUT = 30.0


class _Server(socketserver.ThreadingTCPServer):
    # asyncio's default listen backlog (socketserver's is 5): a burst
    # of clients must queue, not be refused
    request_queue_size = 100
    allow_reuse_address = True
    daemon_threads = True
    # stop() must not join connection threads parked on long-polls
    block_on_close = False

    def __init__(self, address: Tuple[str, int], pool: WorkerPool) -> None:
        self.pool = pool
        if ":" in address[0]:  # an IPv6 literal such as "::1"
            self.address_family = socket.AF_INET6
        super().__init__(address, _Connection)


class _Connection(socketserver.StreamRequestHandler):
    """One connection, one request, on its own thread."""

    server: _Server
    timeout = READ_TIMEOUT
    # one write per response, one per event chunk: none may wait for
    # the previous segment's ACK
    disable_nagle_algorithm = True

    def handle(self) -> None:
        self.pool = self.server.pool
        try:
            try:
                method, path, body = self._read_request()
            except socket.timeout:
                raise _HTTPError(408, "request read timed out") from None
            self._route(method, path, body)
        except _HTTPError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except ClusterRejected as exc:
            self._send_json(429, {"error": str(exc), "reason": exc.reason})
        except ClusterError as exc:
            self._send_json(400, {"error": str(exc)})
        except (ConnectionError, socket.timeout):
            pass  # the client went away, or stopped reading its stream
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _readline(self) -> bytes:
        line = self.rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise _HTTPError(400, "request line too long")
        return line

    def _read_request(self) -> Tuple[str, str, bytes]:
        parts = self._readline().decode("latin-1").split()
        if len(parts) != 3:
            raise _HTTPError(400, "malformed request line")
        method, path, __ = parts
        content_length = 0
        for __ in range(MAX_HEADERS + 1):
            line = self._readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, __, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HTTPError(400, "bad Content-Length") from None
        else:
            raise _HTTPError(400, "too many headers")
        if not 0 <= content_length <= MAX_BODY:
            raise _HTTPError(400, "bad Content-Length")
        body = self.rfile.read(content_length)
        if len(body) != content_length:
            raise _HTTPError(400, "request body shorter than Content-Length")
        return method.upper(), path, body

    def _route(self, method: str, path: str, body: bytes) -> None:
        split = urlsplit(path)
        query = {
            k: v[-1] for k, v in parse_qs(split.query).items()
        }
        segments = [s for s in split.path.split("/") if s]
        if segments == ["healthz"]:
            self._send_json(200, {"ok": True})
        elif segments == ["status"] and method == "GET":
            self._send_json(200, json_safe(self.pool.status()))
        elif segments == ["models"] and method == "GET":
            self._send_json(200, {"models": sorted(registered_models())})
        elif segments == ["jobs"] and method == "POST":
            self._submit(body)
        elif segments == ["jobs"] and method == "GET":
            self._send_json(200, {
                "jobs": [h.status() for h in self.pool.jobs()],
            })
        elif len(segments) == 2 and segments[0] == "jobs":
            handle = self._handle_or_404(segments[1])
            if method != "GET":
                raise _HTTPError(405, "use GET for job status")
            self._send_json(200, handle.status())
        elif len(segments) == 3 and segments[0] == "jobs":
            handle = self._handle_or_404(segments[1])
            action = segments[2]
            if action == "result" and method == "GET":
                self._result(handle, query)
            elif action == "cancel" and method == "POST":
                cancelled = self.pool.cancel(handle.id)
                self._send_json(200, {
                    "id": handle.id, "cancelled": cancelled,
                    "state": handle.state.value,
                })
            elif action == "events" and method == "GET":
                self._stream_events(handle)
            else:
                raise _HTTPError(404, f"unknown action {action!r}")
        else:
            raise _HTTPError(404, f"no route for {method} {split.path}")

    def _handle_or_404(self, job_id: str) -> ClusterJobHandle:
        handle = self.pool.job(job_id)
        if handle is None:
            raise _HTTPError(404, f"unknown job {job_id!r}")
        return handle

    def _submit(self, body: bytes) -> None:
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"bad JSON body: {exc}")
        request = ClusterJobRequest.from_dict(data)
        handle = self.pool.submit(request)
        self._send_json(202, {"id": handle.id, "state": handle.state.value})

    def _result(self, handle: ClusterJobHandle, query: Dict[str, str]) -> None:
        try:
            timeout = float(query.get("timeout", 60.0))
        except ValueError:
            raise _HTTPError(400, "bad timeout")
        if not handle.wait(max(0.0, timeout)):
            raise _HTTPError(
                408, f"job {handle.id} still {handle.state.value} "
                f"after {timeout:g}s",
            )
        status = handle.status()
        if handle.state.value == "done":
            status["result"] = summarise_result(handle.result_value)
        self._send_json(200, status)

    def _stream_events(self, handle: ClusterJobHandle) -> None:
        """Chunked NDJSON: one telemetry event per line, then a final
        status line once the channel closes."""
        self.wfile.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        for item in handle.channel:
            self._write_chunk({
                "kind": item.kind, "job_id": item.job_id,
                "seq": item.seq, "t": json_safe(item.t),
                "payload": json_safe(item.payload),
            })
        self._write_chunk({
            "kind": "end", "job_id": handle.id,
            "state": handle.state.value,
        })
        self.wfile.write(b"0\r\n\r\n")

    def _write_chunk(self, obj: Dict[str, Any]) -> None:
        line = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
        self.wfile.write(b"%x\r\n%b\r\n" % (len(line), line))

    def _send_json(self, status: int, obj: Any) -> None:
        payload = json.dumps(obj, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            self.wfile.write(head + payload)
        except OSError:
            pass  # the client went away


class ClusterHTTPServer:
    """Serve one :class:`WorkerPool` over HTTP from a daemon thread.

    ``start()`` binds and listens, so the port accepts connections once
    it returns, and serves each connection on a thread of its own;
    ``stop()`` closes the listening socket without waiting for
    connections still parked on a long-poll.  ``port=0`` picks an
    ephemeral port, readable from :attr:`port` after start.
    """

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.pool = pool
        self.host = host
        self.port = port
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ClusterHTTPServer":
        if self._server is not None:
            raise ClusterError("server already started")
        server = _Server((self.host, self.port), self.pool)
        self.port = server.server_address[1]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, args=(0.1,),
            name="cluster-http", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        server, thread = self._server, self._thread
        if server is not None and thread is not None:
            # serve_forever notices within its 0.1 s poll interval
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    @property
    def url(self) -> str:
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"http://{host}:{self.port}"

    def __enter__(self) -> "ClusterHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
