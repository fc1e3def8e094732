"""The cluster's asyncio HTTP front-end (stdlib only, no frameworks).

A deliberately small HTTP/1.1 server over :func:`asyncio.start_server`
— request line, headers, ``Content-Length`` body, one request per
connection — because the cluster API needs exactly six verbs:

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

A result long-poll awaits the job's done-callback on the event loop;
channel pops, the one blocking pool call left, run on the default
executor, so the loop keeps serving while jobs run.
:class:`ClusterHTTPServer` also hosts itself on a daemon thread
(``start()``/``stop()``) so synchronous callers — the CLI, tests, the
S11 benchmark — get a serving endpoint without touching asyncio.
"""

from __future__ import annotations

import asyncio
import json
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


class ClusterHTTPServer:
    """Serve one :class:`WorkerPool` over HTTP.

    Use as an async component (``await server.serve()``) or, more
    commonly, as a self-hosting thread: ``start()`` binds the socket,
    spins a daemon event-loop thread and returns once the port is
    accepting; ``stop()`` tears it down.  ``port=0`` picks an ephemeral
    port, readable from :attr:`port` after start.
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
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # ------------------------------------------------------------------
    # threaded self-hosting
    # ------------------------------------------------------------------
    def start(self) -> "ClusterHTTPServer":
        if self._thread is not None:
            raise ClusterError("server already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="cluster-http", daemon=True,
        )
        self._thread.start()
        if not self._started.wait(10.0):
            raise ClusterError("HTTP server failed to start within 10s")
        return self

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._bind())
            self._started.set()
            loop.run_forever()
        finally:
            try:
                if self._server is not None:
                    self._server.close()
                    loop.run_until_complete(self._server.wait_closed())
            finally:
                loop.close()

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5.0)
        self._loop = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # asyncio guts
    # ------------------------------------------------------------------
    async def _bind(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve(self) -> None:
        """Bind and serve until cancelled (async entry point)."""
        await self._bind()
        self._started.set()
        async with self._server:
            await self._server.serve_forever()

    async def _handle_connection(self, reader, writer) -> None:
        try:
            method, path, body = await self._read_request(reader)
        except (_HTTPError, asyncio.IncompleteReadError, ValueError) as exc:
            status = exc.status if isinstance(exc, _HTTPError) else 400
            await self._send_json(
                writer, status, {"error": str(exc)},
            )
            return
        try:
            await self._route(method, path, body, writer)
        except _HTTPError as exc:
            await self._send_json(
                writer, exc.status, {"error": exc.message},
            )
        except ClusterRejected as exc:
            await self._send_json(
                writer, 429, {"error": str(exc), "reason": exc.reason},
            )
        except ClusterError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            await self._send_json(
                writer, 500, {"error": f"{type(exc).__name__}: {exc}"},
            )

    async def _read_request(self, reader) -> Tuple[str, str, bytes]:
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=30.0,
        )
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HTTPError(400, "malformed request line")
        method, path, __ = parts
        content_length = 0
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, __, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HTTPError(400, "bad Content-Length")
        body = b""
        if content_length:
            if content_length > 8 * 1024 * 1024:
                raise _HTTPError(400, "request body too large")
            body = await asyncio.wait_for(
                reader.readexactly(content_length), timeout=30.0,
            )
        return method.upper(), path, body

    async def _route(self, method, path, body, writer) -> None:
        split = urlsplit(path)
        query = {
            k: v[-1] for k, v in parse_qs(split.query).items()
        }
        segments = [s for s in split.path.split("/") if s]
        if segments == ["healthz"]:
            await self._send_json(writer, 200, {"ok": True})
        elif segments == ["status"] and method == "GET":
            await self._send_json(writer, 200, json_safe(self.pool.status()))
        elif segments == ["models"] and method == "GET":
            await self._send_json(
                writer, 200, {"models": sorted(registered_models())},
            )
        elif segments == ["jobs"] and method == "POST":
            await self._submit(body, writer)
        elif segments == ["jobs"] and method == "GET":
            await self._send_json(writer, 200, {
                "jobs": [h.status() for h in self.pool.jobs()],
            })
        elif len(segments) == 2 and segments[0] == "jobs":
            handle = self._handle_or_404(segments[1])
            if method != "GET":
                raise _HTTPError(405, "use GET for job status")
            await self._send_json(writer, 200, handle.status())
        elif len(segments) == 3 and segments[0] == "jobs":
            handle = self._handle_or_404(segments[1])
            action = segments[2]
            if action == "result" and method == "GET":
                await self._result(handle, query, writer)
            elif action == "cancel" and method == "POST":
                cancelled = self.pool.cancel(handle.id)
                await self._send_json(writer, 200, {
                    "id": handle.id, "cancelled": cancelled,
                    "state": handle.state.value,
                })
            elif action == "events" and method == "GET":
                await self._stream_events(handle, writer)
            else:
                raise _HTTPError(404, f"unknown action {action!r}")
        else:
            raise _HTTPError(404, f"no route for {method} {split.path}")

    def _handle_or_404(self, job_id: str) -> ClusterJobHandle:
        handle = self.pool.job(job_id)
        if handle is None:
            raise _HTTPError(404, f"unknown job {job_id!r}")
        return handle

    async def _submit(self, body: bytes, writer) -> None:
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"bad JSON body: {exc}")
        request = ClusterJobRequest.from_dict(data)
        handle = self.pool.submit(request)
        await self._send_json(writer, 202, {
            "id": handle.id, "state": handle.state.value,
        })

    async def _result(self, handle, query, writer) -> None:
        try:
            timeout = float(query.get("timeout", 60.0))
        except ValueError:
            raise _HTTPError(400, "bad timeout")
        # awaited on the event loop, not in an executor thread: a long
        # poll must not hold one of the few threads every other
        # request's blocking work queues for
        loop = asyncio.get_running_loop()
        finished = loop.create_future()

        def settle() -> None:
            if not finished.done():
                finished.set_result(None)

        def on_done(__) -> None:
            try:
                loop.call_soon_threadsafe(settle)
            except RuntimeError:
                pass  # the server stopped; nobody is waiting

        handle.add_done_callback(on_done)
        try:
            await asyncio.wait_for(finished, max(0.0, timeout))
        except asyncio.TimeoutError:
            raise _HTTPError(
                408, f"job {handle.id} still {handle.state.value} "
                f"after {timeout:g}s",
            ) from None
        status = handle.status()
        if handle.state.value == "done":
            status["result"] = summarise_result(handle.result_value)
        await self._send_json(writer, 200, status)

    async def _stream_events(self, handle, writer) -> None:
        """Chunked NDJSON: one telemetry event per line, then a final
        status line once the channel closes."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        loop = asyncio.get_running_loop()
        channel = handle.channel
        try:
            while True:
                item, popped = await loop.run_in_executor(
                    None, channel.pop_item, True, 0.25,
                )
                if popped:
                    await self._write_chunk(writer, {
                        "kind": item.kind, "job_id": item.job_id,
                        "seq": item.seq, "t": json_safe(item.t),
                        "payload": json_safe(item.payload),
                    })
                elif channel.closed:
                    break
            await self._write_chunk(writer, {
                "kind": "end", "job_id": handle.id,
                "state": handle.state.value,
            })
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-stream
        finally:
            writer.close()

    @staticmethod
    async def _write_chunk(writer, obj: Dict[str, Any]) -> None:
        line = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
        writer.write(f"{len(line):x}\r\n".encode("ascii"))
        writer.write(line + b"\r\n")
        await writer.drain()

    async def _send_json(self, writer, status: int, obj: Any) -> None:
        try:
            payload = json.dumps(obj, sort_keys=True).encode("utf-8")
            reason = _REASONS.get(status, "OK")
            writer.write(
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n".encode("ascii")
            )
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    def __enter__(self) -> "ClusterHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
