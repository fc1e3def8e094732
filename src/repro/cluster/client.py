"""A synchronous stdlib HTTP client for the cluster front-end.

One socket per call (the server closes connections after each
response), JSON in/out, and a line iterator over the chunked NDJSON
event stream.  The client writes its request in one ``sendall`` and
reads the response with a small reader — status line, headers, then a
``Content-Length``, chunked or read-to-close body — because plain HTTP
on a socket needs no TLS stack, and :mod:`http.client` loads one.  This
is what the CLI, the smoke harness and the S11 benchmark speak;
anything else that can POST JSON works just as well.
"""

from __future__ import annotations

import json
import socket
import time
from contextlib import contextmanager
from typing import Any, BinaryIO, Dict, Iterator, Optional, Tuple
from urllib.parse import urlsplit

from repro.cluster.requests import ClusterError, ClusterJobRequest, ClusterRejected

#: the longest status, header or chunk-size line accepted, in bytes
MAX_LINE = 64 * 1024


class ClusterClientError(ClusterError):
    """An HTTP-level failure talking to the cluster."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


def _readline(stream: BinaryIO) -> bytes:
    line = stream.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ClusterError("HTTP response line too long")
    return line


def _read_exactly(stream: BinaryIO, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise ClusterError("connection closed mid-response")
    return data


def _read_head(stream: BinaryIO) -> Tuple[int, Dict[str, str]]:
    """The status code and the (lower-cased) headers of a response."""
    line = _readline(stream)
    parts = line.split(None, 2)
    if (
        len(parts) < 2 or not parts[0].startswith(b"HTTP/")
        or not parts[1].isdigit()
    ):
        raise ClusterError(f"malformed HTTP status line: {line[:80]!r}")
    status = int(parts[1])
    headers = {}
    while True:
        line = _readline(stream)
        if line in (b"\r\n", b"\n", b""):
            return status, headers
        name, __, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def _body(stream: BinaryIO, headers: Dict[str, str]) -> Iterator[bytes]:
    """The response body, piece by piece as it arrives."""
    if headers.get("transfer-encoding", "").lower() == "chunked":
        while True:
            size_field = _readline(stream).split(b";")[0].strip()
            try:
                size = int(size_field, 16)
            except ValueError:
                raise ClusterError(
                    f"malformed chunk size: {size_field!r}"
                ) from None
            if size == 0:
                return
            yield _read_exactly(stream, size)
            _readline(stream)  # the chunk's closing CRLF
    elif "content-length" in headers:
        yield _read_exactly(stream, int(headers["content-length"]))
    else:
        yield stream.read()


class ClusterClient:
    """Talk to a :class:`~repro.cluster.http.ClusterHTTPServer`."""

    def __init__(self, base_url: str, timeout: float = 120.0) -> None:
        split = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        if split.scheme not in ("", "http"):
            raise ClusterError(f"only http:// is supported: {base_url}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout

    # ------------------------------------------------------------------
    @contextmanager
    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[Tuple[int, Iterator[bytes]]]:
        """Send one request; yields ``(status, body pieces)`` with the
        connection open."""
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        with socket.create_connection(
            (self.host, self.port), timeout=timeout or self.timeout,
        ) as sock, sock.makefile("rb") as stream:
            sock.sendall(head + payload)
            status, headers = _read_head(stream)
            yield status, _body(stream, headers)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        with self._exchange(method, path, body, timeout) as (status, pieces):
            data = b"".join(pieces)
        try:
            decoded = json.loads(data.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"error": data[:200].decode("latin-1")}
        if status >= 400:
            message = decoded.get("error", "unknown error")
            if status == 429:
                raise ClusterRejected(
                    decoded.get("reason", "rejected"), message,
                )
            raise ClusterClientError(status, message)
        return decoded

    # ------------------------------------------------------------------
    def healthz(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (OSError, ClusterError):
            return False

    def wait_ready(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthz():
                return
            time.sleep(0.05)
        raise ClusterError(
            f"cluster at {self.host}:{self.port} not ready "
            f"after {timeout:g}s"
        )

    def status(self) -> Dict[str, Any]:
        return self._request("GET", "/status")

    def models(self) -> list:
        return self._request("GET", "/models")["models"]

    def submit(self, request: ClusterJobRequest) -> str:
        """Submit; returns the job id (raises ClusterRejected on shed)."""
        return self._request("POST", "/jobs", body=request.to_dict())["id"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list:
        return self._request("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> bool:
        return bool(
            self._request("POST", f"/jobs/{job_id}/cancel")["cancelled"]
        )

    def result(
        self, job_id: str, timeout: float = 60.0
    ) -> Dict[str, Any]:
        """Block server-side for the result summary; raises on FAILED."""
        status = self._request(
            "GET", f"/jobs/{job_id}/result?timeout={timeout:g}",
            timeout=timeout + self.timeout,
        )
        if status.get("state") != "done":
            raise ClusterError(
                f"job {job_id} finished {status.get('state')}: "
                f"{status.get('error')}"
            )
        return status

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield NDJSON telemetry events until the job's stream ends."""
        with self._exchange("GET", f"/jobs/{job_id}/events") as (
            status, pieces,
        ):
            if status >= 400:
                data = b"".join(pieces)
                raise ClusterClientError(
                    status, data[:200].decode("latin-1"),
                )
            buffer = b""
            for piece in pieces:
                buffer += piece
                while b"\n" in buffer:
                    line, __, buffer = buffer.partition(b"\n")
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
