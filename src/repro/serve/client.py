"""A minimal stdlib client for the serving daemon.

:class:`SpMMClient` drives the HTTP surface over :mod:`http.client` so
scripts, docs, and tests need no extra dependency and never hand-roll
the wire format.  Each thread keeps one persistent (keep-alive)
connection.  Operands of ``multiply``/``submit`` travel as
``application/x-npy`` bodies and results come back the same way
(:func:`~repro.serve.wire.npy_parts`/:func:`~repro.serve.wire.decode_npy`),
so a warm multiply pays no text encoding: ``B`` is sent from its own
buffer and ``C`` read into the thread's reused
:class:`~repro.serve.wire.ReceiveBuffer`.  Matrix registration and
streams use the JSON forms (:func:`~repro.serve.wire.encode_csr`,
:func:`~repro.serve.wire.encode_array`).  Results are numpy arrays.

>>> from repro.serve import SpMMServer, SpMMClient
>>> with SpMMServer() as server, SpMMClient(server.url) as client:
...     fp = client.register(A)
...     C, info = client.multiply(fp, B)
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import Dict, Iterator, List, Optional, Tuple, Union
from urllib.parse import urlencode, urlsplit

import numpy as np

from ..formats import CSRMatrix
from .wire import (
    INFO_HEADER,
    NPY_CONTENT_TYPE,
    ReceiveBuffer,
    decode_array,
    decode_npy,
    encode_array,
    encode_csr,
    npy_parts,
)

__all__ = ["SpMMClient", "ServeClientError"]

_JSON = "application/json"

#: a request body: JSON bytes, or an npy file's parts sent one after the other
_Body = Union[bytes, Tuple[bytes, memoryview]]


def _close_all(connections: Dict[threading.Thread, http.client.HTTPConnection]) -> None:
    for conn in list(connections.values()):
        conn.close()


class ServeClientError(RuntimeError):
    """An error response from the daemon, carrying the HTTP context.

    Attributes
    ----------
    status:
        HTTP status code of the response.
    code:
        Machine-readable error code from the JSON envelope (e.g.
        ``"unauthorized"``, ``"quota_exceeded"``, ``"overloaded"``).
    retry_after:
        Parsed ``Retry-After`` header in seconds, when the server sent
        one (429 responses do).
    """

    def __init__(
        self, status: int, code: str, message: str, *, retry_after: Optional[float] = None
    ):
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = int(status)
        self.code = code
        self.retry_after = retry_after


class SpMMClient:
    """Talk to one :class:`~repro.serve.app.SpMMServer` over HTTP.

    Safe to share between threads: each thread uses its own persistent
    connection.  :meth:`close` (or leaving the ``with`` block) closes
    them all; a later call opens a fresh one.

    Parameters
    ----------
    base_url:
        The server's base URL, e.g. ``"http://127.0.0.1:8942"``.
    token:
        Bearer token to send on every request (omit for open servers).
    timeout:
        Socket timeout per request, in seconds.
    """

    def __init__(self, base_url: str, *, token: Optional[str] = None, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = float(timeout)
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"base_url must be an http:// URL, got {base_url!r}")
        self._host = parts.hostname
        self._port = parts.port
        self._prefix = parts.path
        #: each thread's persistent connection
        self._connections: Dict[threading.Thread, http.client.HTTPConnection] = {}
        self._connections_lock = threading.Lock()
        #: each thread's receive buffer for npy results
        self._local = threading.local()
        # a client dropped without close() still releases its sockets
        weakref.finalize(self, _close_all, self._connections)

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Close every thread's connection (the client stays usable)."""
        with self._connections_lock:
            _close_all(self._connections)

    def __enter__(self) -> "SpMMClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transport ------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's persistent connection, created on first use; the
        connections of threads that have ended are closed then."""
        thread = threading.current_thread()
        conn = self._connections.get(thread)
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=self.timeout)
            with self._connections_lock:
                for ended in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(ended).close()
                self._connections[thread] = conn
        return conn

    def _send(
        self,
        method: str,
        path: str,
        body: Optional[_Body] = None,
        content_type: str = _JSON,
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request on this thread's connection; returns the
        connection and the response of a successful request, body unread.

        A kept-alive connection the server has dropped meanwhile is
        reopened and the request sent once more; error responses are
        raised as :class:`ServeClientError`.
        """
        headers = {"Accept": f"{NPY_CONTENT_TYPE}, {_JSON}"}
        if body is not None:
            headers["Content-Type"] = content_type
        if isinstance(body, tuple):
            headers["Content-Length"] = str(sum(len(part) for part in body))
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        conn = self._connection()
        url = self._prefix + path
        reused = conn.sock is not None
        try:
            resp = self._exchange(conn, method, url, body, headers)
        except ConnectionError:
            if not reused:
                raise
            resp = self._exchange(conn, method, url, body, headers)
        if resp.status >= 400:
            raise self._error_from(conn, resp)
        return conn, resp

    @staticmethod
    def _exchange(
        conn: http.client.HTTPConnection,
        method: str,
        url: str,
        body: Optional[_Body],
        headers: Dict[str, str],
    ) -> http.client.HTTPResponse:
        try:
            conn.request(method, url, body=body, headers=headers)
            return conn.getresponse()
        except (OSError, http.client.HTTPException):
            conn.close()  # a failed exchange leaves the connection unusable
            raise

    @staticmethod
    def _read(conn: http.client.HTTPConnection, resp: http.client.HTTPResponse) -> bytes:
        """The whole response body (a half-read response would block the
        connection's next request, so a failed read closes it)."""
        try:
            return resp.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            raise

    def _read_npy(
        self, conn: http.client.HTTPConnection, resp: http.client.HTTPResponse
    ) -> np.ndarray:
        """An npy response body decoded into a new array, read through this
        thread's receive buffer (a failed read closes the connection)."""
        if resp.length is None:
            return decode_npy(self._read(conn, resp), field="C")
        buffer = self._local.__dict__.setdefault("buffer", ReceiveBuffer())
        try:
            raw = buffer.read(resp, resp.length)
        except (OSError, http.client.HTTPException):
            conn.close()
            raise
        return decode_npy(raw, field="C")

    def _call(
        self,
        method: str,
        path: str,
        body: Optional[_Body] = None,
        content_type: str = _JSON,
    ) -> Dict[str, object]:
        """One request/response exchange; returns the response payload.
        An npy response becomes its info header's fields plus ``C``."""
        conn, resp = self._send(method, path, body, content_type)
        if resp.getheader("Content-Type") == NPY_CONTENT_TYPE:
            payload = json.loads(resp.getheader(INFO_HEADER) or "{}")
            payload["C"] = self._read_npy(conn, resp)
            return payload
        return json.loads(self._read(conn, resp))

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """A JSON exchange: ``payload`` (if any) as the body."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        return self._call(method, path, body)

    def _operand_call(
        self, path: str, fingerprint: str, B: np.ndarray, config: Optional[Dict[str, object]]
    ) -> Dict[str, object]:
        """``POST`` an npy operand with the fingerprint and config in the
        query string."""
        query = {"fingerprint": fingerprint}
        if config is not None:
            query["config"] = json.dumps(config)
        return self._call("POST", f"{path}?{urlencode(query)}", npy_parts(B), NPY_CONTENT_TYPE)

    def _error_from(
        self, conn: http.client.HTTPConnection, resp: http.client.HTTPResponse
    ) -> ServeClientError:
        code, message = "internal", resp.reason
        try:
            envelope = json.loads(self._read(conn, resp))
            code = envelope["error"]["code"]
            message = envelope["error"]["message"]
        except (json.JSONDecodeError, KeyError, TypeError):
            pass
        retry_after: Optional[float] = None
        header = resp.getheader("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                pass
        return ServeClientError(resp.status, code, message, retry_after=retry_after)

    # -- endpoints ------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        """``GET /metrics``."""
        return self._request("GET", "/metrics")

    def register(self, A: CSRMatrix) -> str:
        """Upload a CSR matrix; returns its content fingerprint."""
        return str(self._request("POST", "/matrices", encode_csr(A))["fingerprint"])

    def list_matrices(self) -> List[Dict[str, object]]:
        """This tenant's registrations."""
        return list(self._request("GET", "/matrices")["matrices"])

    def multiply(
        self,
        fingerprint: str,
        B: np.ndarray,
        *,
        config: Optional[Dict[str, object]] = None,
    ) -> Tuple[np.ndarray, Dict[str, object]]:
        """Synchronous multiply; returns ``(C, info)`` where ``info``
        carries ``cache_hit``, ``wall_ms``, and the execution report."""
        payload = self._operand_call("/multiply", fingerprint, B, config)
        C = payload.pop("C")
        return C, payload

    def submit(
        self,
        fingerprint: str,
        B: np.ndarray,
        *,
        config: Optional[Dict[str, object]] = None,
    ) -> str:
        """Async submit; returns a job id to poll."""
        return str(self._operand_call("/jobs", fingerprint, B, config)["job_id"])

    def poll(self, job_id: str) -> Dict[str, object]:
        """One non-blocking poll of a job; ``status`` is ``"pending"``,
        ``"done"`` (result attached, consumed), or ``"failed"``."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str, *, poll_interval: float = 0.02) -> np.ndarray:
        """Poll until the job finishes and return ``C`` (raises
        :class:`ServeClientError` on a failed job)."""
        while True:
            payload = self.poll(job_id)
            if payload["status"] == "done":
                return payload["C"]
            if payload["status"] == "failed":
                raise ServeClientError(200, "job_failed", str(payload.get("error")))
            time.sleep(poll_interval)

    def stream(
        self,
        fingerprint: str,
        Bs: List[np.ndarray],
        *,
        config: Optional[Dict[str, object]] = None,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Stream many operands; yields ``(index, C)`` in input order.

        The response is NDJSON over chunked transfer encoding;
        ``http.client`` de-chunks transparently, so each line read is one
        result record.  A stream abandoned before its end closes this
        thread's connection, which cannot carry another request until
        the response is read.
        """
        body: Dict[str, object] = {
            "fingerprint": fingerprint,
            "Bs": [encode_array(B) for B in Bs],
        }
        if config is not None:
            body["config"] = config
        conn, resp = self._send("POST", "/stream", json.dumps(body).encode("utf-8"))
        try:
            for line in resp:
                record = json.loads(line)
                if record.get("done"):
                    resp.read()  # the closing chunk: leaves the connection reusable
                    return
                yield int(record["index"]), decode_array(record["C"], field="C")
        finally:
            if not resp.isclosed():
                conn.close()
