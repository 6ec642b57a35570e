"""The SpMM-as-a-service HTTP daemon.

:class:`SpMMServer` puts the existing engine machinery behind a
long-lived, multi-tenant HTTP/JSON surface -- stdlib
:class:`~http.server.ThreadingHTTPServer` only, no new dependencies.
The request path is::

    tenant --> auth (bearer token) --> quotas --> admission queue
           --> MatrixRegistry (fingerprint) --> SpMMEngine --> PlanCache

Endpoints
---------
``GET /healthz``
    Liveness probe (unauthenticated).
``GET /metrics``
    JSON counters: requests per tenant/endpoint/status, rejection
    reasons, latency percentiles, admission depth, plan-cache and engine
    telemetry (unauthenticated).  With online tuning enabled
    (``ExecutionPolicy(online_tune=...)`` or ``REPRO_ONLINE_TUNE=1``)
    the engine block gains an ``online`` section -- per-backend drift,
    cost-model recalibrations, background re-tunes and exploration
    share -- and ``?format=prometheus`` exposes the same loop as
    ``repro_online_*`` series.
``POST /matrices``
    Register a CSR matrix by content; returns its fingerprint.  Upload
    once, multiply many.
``GET /matrices``
    List the calling tenant's registrations.
``POST /multiply``
    Synchronous ``C = A @ B`` against a registered fingerprint.
``POST /jobs`` / ``GET /jobs/{id}``
    Async submit/poll, mapped onto ``engine.submit()`` /
    ``engine.result()``.
``POST /stream``
    Many operands through ``engine.stream()``, results delivered as
    chunked NDJSON in input order.

Robustness is part of the surface: bounded admission (429 +
``Retry-After`` on overload), per-tenant registration and plan-cache
quotas, request-size limits (413), and structured JSON request logs with
per-request IDs.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional, TextIO, Tuple, Union
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..core.config import SMaTConfig
from ..core.plan import plan_key
from ..core.policy import ExecutionPolicy
from ..engine import SpMMEngine
from .admission import AdmissionController
from .auth import Authenticator, PlanQuota, Tenant
from .errors import ApiError, BadRequest, NotFound, Overloaded, PayloadTooLarge
from .metrics import ServerMetrics
from .registry import MatrixRegistry
from .wire import decode_array, decode_csr, encode_array, report_payload

__all__ = ["SpMMServer"]

#: default request-body cap: large enough for scaled stand-ins, small
#: enough that one request cannot exhaust memory
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: how much of an unread request body an error response will drain so the
#: client can finish writing and read the response; beyond this the
#: connection is dropped instead
_DRAIN_LIMIT = 8 * 1024 * 1024

#: configuration fields a request may override per call
_CONFIG_FIELDS = ("kernel", "reorder", "precision", "block_shape")


class _HTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying a back-reference to the app."""

    daemon_threads = True
    allow_reuse_address = True
    app: "SpMMServer"


class SpMMServer:
    """Multi-tenant HTTP daemon in front of a shared :class:`SpMMEngine`.

    Parameters
    ----------
    config:
        Default pipeline configuration for every plan the daemon builds;
        requests may override ``kernel``/``reorder``/``precision``/
        ``block_shape`` per call.
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port (the docs and
        test suites rely on this); read the actual address back from
        :attr:`url`.
    engine:
        Use an existing engine instead of owning one (the caller keeps
        responsibility for closing it).
    cache_size:
        Plan-cache capacity of the owned :class:`SpMMEngine` when
        ``engine`` is not given.
    policy:
        :class:`~repro.core.policy.ExecutionPolicy` of the owned engine:
        worker-pool width, tuning, and the thread-vs-process shard
        executor behind sharded queries.
    tokens:
        ``{token: Tenant-or-name}`` auth map; empty means **open mode**
        (a single shared anonymous tenant).
    registry_capacity:
        Global cap on distinct registered matrices.
    max_inflight / max_queue / queue_timeout_s:
        Admission control: concurrent executions, bounded wait queue,
        and how long a request may wait for a slot before 429.
    max_pending_jobs:
        Cap on submitted-but-unfinished async jobs (default
        ``max_inflight + max_queue``).
    max_body_bytes:
        Request-size limit; larger uploads get 413.
    log_stream:
        Writable text stream for structured JSON request logs (one
        object per line); ``None`` disables logging.
    """

    def __init__(
        self,
        config: Optional[SMaTConfig] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        engine: Optional[SpMMEngine] = None,
        cache_size: int = 32,
        policy: Optional[ExecutionPolicy] = None,
        tokens: Optional[Dict[str, Union[Tenant, str]]] = None,
        registry_capacity: int = 256,
        max_inflight: Optional[int] = None,
        max_queue: int = 16,
        queue_timeout_s: float = 0.25,
        max_pending_jobs: Optional[int] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        log_stream: Optional[TextIO] = None,
    ):
        self.config = (config or SMaTConfig()).validate()
        if engine is None:
            engine = SpMMEngine(self.config, policy=policy, cache_size=cache_size)
            self._owns_engine = True
        else:
            if policy is not None:
                raise ValueError(
                    "pass execution options (policy) to the engine itself when providing one"
                )
            self._owns_engine = False
        self.engine = engine
        self.auth = Authenticator(tokens)
        self.registry = MatrixRegistry(registry_capacity)
        self.quota = PlanQuota()
        self.admission = AdmissionController(
            max_inflight if max_inflight is not None else engine.max_workers,
            max_queue,
            queue_timeout_s=queue_timeout_s,
        )
        self.max_pending_jobs = (
            int(max_pending_jobs)
            if max_pending_jobs is not None
            else self.admission.max_inflight + self.admission.max_queue
        )
        self.max_body_bytes = int(max_body_bytes)
        self.metrics = ServerMetrics()
        self.log_stream = log_stream
        self._log_lock = threading.Lock()
        self._jobs: Dict[str, Tuple[int, str]] = {}
        self._jobs_lock = threading.Lock()
        self._started = time.time()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.app = self

    # -- lifecycle ------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved when ephemeral)."""
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "SpMMServer":
        """Serve in a background daemon thread (returns immediately)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="spmm-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI mode)."""
        self._httpd.serve_forever(poll_interval=0.5)

    def close(self) -> None:
        """Stop serving and release the engine if owned (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "SpMMServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def tracer(self):
        """The engine's :class:`repro.obs.Tracer` (no-op unless the
        engine's policy enables tracing); ``http.request`` spans are
        recorded against it so one trace covers HTTP entry to worker."""
        return self.engine.tracer

    # -- logging --------------------------------------------------------------
    def log_event(self, event: str, **fields: object) -> None:
        """Emit one structured JSON log line (no-op without a stream)."""
        if self.log_stream is None:
            return
        record = {"ts": time.time(), "event": event}
        record.update(fields)
        line = json.dumps(record, default=str)
        with self._log_lock:
            self.log_stream.write(line + "\n")
            try:
                self.log_stream.flush()
            except (OSError, ValueError):  # pragma: no cover - closed stream
                pass

    # -- request helpers ------------------------------------------------------
    def _resolve_config(self, payload: Dict[str, object]) -> SMaTConfig:
        """The effective configuration of one request: the server default
        with the request's per-call overrides applied."""
        overrides = payload.get("config")
        if overrides is None:
            return self.config
        if not isinstance(overrides, dict):
            raise BadRequest("config must be an object")
        unknown = set(overrides) - set(_CONFIG_FIELDS)
        if unknown:
            raise BadRequest(
                f"unknown config field(s) {sorted(unknown)}; "
                f"allowed: {list(_CONFIG_FIELDS)}"
            )
        kwargs = dict(overrides)
        if "block_shape" in kwargs and kwargs["block_shape"] is not None:
            shape = kwargs["block_shape"]
            if not isinstance(shape, (list, tuple)) or len(shape) != 2:
                raise BadRequest("config.block_shape must be a [rows, cols] pair")
            kwargs["block_shape"] = (int(shape[0]), int(shape[1]))
        try:
            return replace(self.config, **kwargs).validate()
        except (TypeError, ValueError, KeyError) as exc:
            raise BadRequest(f"invalid config: {exc}") from None

    def _resolve_operand(
        self, tenant: Tenant, payload: Dict[str, object]
    ) -> Tuple[object, np.ndarray, SMaTConfig]:
        """Shared multiply/jobs front half: fingerprint -> matrix, decode
        ``B``, resolve the config, and charge the tenant's plan quota."""
        fingerprint = payload.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise BadRequest("request must carry a string 'fingerprint'")
        A = self.registry.get(fingerprint, tenant)
        if "B" not in payload:
            raise BadRequest("request must carry the dense operand 'B'")
        B = decode_array(payload["B"], field="B")
        if B.ndim not in (1, 2) or B.shape[0] != A.ncols:
            raise BadRequest(
                f"operand B has shape {list(B.shape)}, expected ({A.ncols}, n)"
            )
        cfg = self._resolve_config(payload)
        self.quota.charge(tenant, plan_key(A, cfg))
        return A, B, cfg

    # -- route handlers -------------------------------------------------------
    def handle_healthz(self) -> Tuple[int, Dict[str, object]]:
        """Liveness: cheap, unauthenticated, never touches the engine pool."""
        return 200, {
            "status": "ok",
            "uptime_s": time.time() - self._started,
            "workers": self.engine.max_workers,
            "matrices": self.registry.count(),
            "open_auth": self.auth.open,
        }

    def handle_metrics(self) -> Tuple[int, Dict[str, object]]:
        """The full metrics document (see :mod:`repro.serve.metrics`)."""
        return 200, self.metrics.snapshot(
            engine=self.engine, registry=self.registry, admission=self.admission
        )

    def handle_metrics_prometheus(self) -> str:
        """``GET /metrics?format=prometheus``: text exposition rendering
        of the same registry (version 0.0.4)."""
        return self.metrics.prometheus(
            engine=self.engine, registry=self.registry, admission=self.admission
        )

    def handle_register(
        self, tenant: Tenant, payload: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        """``POST /matrices``: content-addressed registration."""
        A = decode_csr(payload)
        fingerprint, created = self.registry.register(A, tenant)
        return 201 if created else 200, {
            "fingerprint": fingerprint,
            "created": created,
            "nrows": int(A.nrows),
            "ncols": int(A.ncols),
            "nnz": int(A.nnz),
        }

    def handle_list_matrices(self, tenant: Tenant) -> Tuple[int, Dict[str, object]]:
        """``GET /matrices``: the tenant's registrations."""
        return 200, {"matrices": self.registry.list_for(tenant)}

    def handle_multiply(
        self, tenant: Tenant, payload: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        """``POST /multiply``: synchronous execution under admission."""
        A, B, cfg = self._resolve_operand(tenant, payload)
        with self.admission.admit():
            result = self.engine.execute_one(A, B, config=cfg)
        return 200, {
            "C": encode_array(result.C),
            "cache_hit": result.cache_hit,
            "wall_ms": result.wall_ms,
            "report": report_payload(result.report),
        }

    def handle_submit(
        self, tenant: Tenant, payload: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        """``POST /jobs``: async submit, bounded by the job backlog."""
        if self.engine.queue_depth() >= self.max_pending_jobs:
            raise Overloaded(
                f"async job backlog full ({self.max_pending_jobs} pending); "
                "poll outstanding jobs or retry later",
                retry_after=1.0,
            )
        A, B, cfg = self._resolve_operand(tenant, payload)
        ticket = self.engine.submit(A, B, config=cfg)
        job_id = uuid.uuid4().hex[:16]
        with self._jobs_lock:
            self._jobs[job_id] = (ticket, tenant.name)
        return 202, {"job_id": job_id, "status": "pending"}

    def handle_poll(self, tenant: Tenant, job_id: str) -> Tuple[int, Dict[str, object]]:
        """``GET /jobs/{id}``: non-blocking poll; results are consumed on
        first successful read (poll-once semantics, like
        :meth:`SpMMEngine.result`)."""
        with self._jobs_lock:
            entry = self._jobs.get(job_id)
        if entry is None or entry[1] != tenant.name:
            # not distinguishing "never existed" from "not yours":
            # job ids must not leak across tenants
            raise NotFound(f"unknown job {job_id!r}")
        ticket = entry[0]
        try:
            result = self.engine.result(ticket, timeout=0.0)
        except FuturesTimeoutError:
            return 200, {"job_id": job_id, "status": "pending"}
        except Exception as exc:  # execution failed inside the engine
            with self._jobs_lock:
                self._jobs.pop(job_id, None)
            return 200, {"job_id": job_id, "status": "failed", "error": str(exc)}
        with self._jobs_lock:
            self._jobs.pop(job_id, None)
        return 200, {
            "job_id": job_id,
            "status": "done",
            "C": encode_array(result.C),
            "cache_hit": result.cache_hit,
            "wall_ms": result.wall_ms,
            "report": report_payload(result.report),
        }

    def handle_stream(
        self, tenant: Tenant, payload: Dict[str, object]
    ) -> Iterator[Dict[str, object]]:
        """``POST /stream``: pipeline many operands through
        ``engine.stream()``, yielding one NDJSON record per result in
        input order.  One admission slot is held for the whole stream."""
        fingerprint = payload.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise BadRequest("request must carry a string 'fingerprint'")
        A = self.registry.get(fingerprint, tenant)
        raw_Bs = payload.get("Bs")
        if not isinstance(raw_Bs, list) or not raw_Bs:
            raise BadRequest("request must carry a non-empty list 'Bs'")
        Bs = [decode_array(obj, field=f"Bs[{i}]") for i, obj in enumerate(raw_Bs)]
        for i, B in enumerate(Bs):
            if B.ndim not in (1, 2) or B.shape[0] != A.ncols:
                raise BadRequest(
                    f"Bs[{i}] has shape {list(B.shape)}, expected ({A.ncols}, n)"
                )
        cfg = self._resolve_config(payload)
        self.quota.charge(tenant, plan_key(A, cfg))

        def generate() -> Iterator[Dict[str, object]]:
            count = 0
            with self.admission.admit():
                for result in self.engine.stream(A, iter(Bs), config=cfg):
                    count += 1
                    yield {
                        "index": result.index,
                        "C": encode_array(result.C),
                        "cache_hit": result.cache_hit,
                        "wall_ms": result.wall_ms,
                    }
            self.metrics.record_streamed(count)
            yield {"done": True, "count": count}

        return generate()


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter: routing, auth, body limits, JSON envelopes.

    All domain work happens on the :class:`SpMMServer` methods; this
    class only translates HTTP to/from them and accounts metrics/logs.
    """

    protocol_version = "HTTP/1.1"
    server: _HTTPServer

    # -- plumbing -------------------------------------------------------------
    @property
    def app(self) -> SpMMServer:
        """The owning server application."""
        return self.server.app

    def log_message(self, format, *args):  # noqa: D102 - silencing stdlib logging
        pass

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        *,
        request_id: str,
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-ID", request_id)
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(round(retry_after)))))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, *, request_id: str) -> None:
        """Write a plain-text response (the Prometheus exposition)."""
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-ID", request_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_ndjson_stream(
        self, records: Iterator[Dict[str, object]], *, request_id: str
    ) -> int:
        """Write a chunked NDJSON response; returns the record count."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Request-ID", request_id)
        self.end_headers()
        count = 0
        for record in records:
            chunk = json.dumps(record).encode("utf-8") + b"\n"
            self.wfile.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
            count += 1
        self.wfile.write(b"0\r\n\r\n")
        return count

    def _read_json_body(self) -> Tuple[Dict[str, object], int]:
        """Read and parse the request body under the size limit."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise BadRequest("missing Content-Length")
        try:
            length = int(length_header)
        except ValueError:
            raise BadRequest(f"invalid Content-Length {length_header!r}") from None
        if length < 0:
            raise BadRequest("negative Content-Length")
        if length > self.app.max_body_bytes:
            # reject before reading; the error path drains (or drops)
            # the unread body so the client can still read the 413
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.app.max_body_bytes}-byte limit"
            )
        raw = self.rfile.read(length)
        self._body_consumed = True
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise BadRequest("body must be a JSON object")
        return payload, length

    def _drain_body(self) -> None:
        """Discard an unread request body so an early error response can
        be delivered over a still-usable connection.

        Bodies beyond the drain limit are not worth reading: the
        connection is marked for close instead (the client may then see
        the reset before the response -- the price of refusing huge
        uploads without consuming them)."""
        if self._body_consumed:
            return
        self._body_consumed = True
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0:
            return
        if length > max(_DRAIN_LIMIT, self.app.max_body_bytes):
            self.close_connection = True
            return
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)

    # -- request loop ---------------------------------------------------------
    def do_GET(self) -> None:
        """Route GET requests."""
        self._dispatch("GET")

    def do_POST(self) -> None:
        """Route POST requests."""
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        app = self.app
        request_id = uuid.uuid4().hex[:12]
        start = time.perf_counter()
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        endpoint = f"{method} {path}"
        tenant_name: Optional[str] = None
        status = 500
        bytes_in = 0
        rejected: Optional[str] = None
        self._body_consumed = False
        # the request span is the trace root: engine spans triggered by
        # the handlers nest under it, tying HTTP entry to kernel runs
        with app.tracer.span(
            "http.request", method=method, path=path, request_id=request_id
        ) as span:
            try:
                if method == "GET" and path == "/healthz":
                    status, payload = app.handle_healthz()
                    self._send_json(status, payload, request_id=request_id)
                    return
                if method == "GET" and path == "/metrics":
                    fmt = parse_qs(parts.query).get("format", ["json"])[0]
                    if fmt == "prometheus":
                        status = 200
                        self._send_text(
                            status, app.handle_metrics_prometheus(), request_id=request_id
                        )
                        return
                    status, payload = app.handle_metrics()
                    self._send_json(status, payload, request_id=request_id)
                    return

                tenant = app.auth.authenticate(self.headers.get("Authorization"))
                tenant_name = tenant.name

                if method == "GET" and path.startswith("/jobs/"):
                    endpoint = "GET /jobs/{id}"
                    status, payload = app.handle_poll(tenant, path[len("/jobs/") :])
                elif method == "GET" and path == "/matrices":
                    status, payload = app.handle_list_matrices(tenant)
                elif method == "POST" and path == "/matrices":
                    body, bytes_in = self._read_json_body()
                    status, payload = app.handle_register(tenant, body)
                elif method == "POST" and path == "/multiply":
                    body, bytes_in = self._read_json_body()
                    status, payload = app.handle_multiply(tenant, body)
                elif method == "POST" and path == "/jobs":
                    body, bytes_in = self._read_json_body()
                    status, payload = app.handle_submit(tenant, body)
                elif method == "POST" and path == "/stream":
                    body, bytes_in = self._read_json_body()
                    records = app.handle_stream(tenant, body)
                    status = 200
                    self._send_ndjson_stream(records, request_id=request_id)
                    return
                else:
                    raise NotFound(f"no such endpoint: {endpoint}")
                self._send_json(status, payload, request_id=request_id)
            except ApiError as exc:
                status = exc.status
                rejected = exc.code if status in (401, 413, 429) else None
                self._drain_body()
                self._send_json(
                    status,
                    {"error": {"code": exc.code, "message": str(exc)}},
                    request_id=request_id,
                    retry_after=exc.retry_after,
                )
            except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                status = 499  # client went away mid-response; nothing to send
            except Exception as exc:  # unexpected: surface as a 500 envelope
                status = 500
                try:
                    self._drain_body()
                    self._send_json(
                        status,
                        {"error": {"code": "internal", "message": str(exc)}},
                        request_id=request_id,
                    )
                except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                    pass
            finally:
                wall_ms = 1e3 * (time.perf_counter() - start)
                span.set(endpoint=endpoint, status=status)
                if tenant_name is not None:
                    span.set(tenant=tenant_name)
                if status >= 400:
                    span.mark_error(rejected or f"http {status}")
                ctx = span.context if span.recording else None
                app.metrics.record_request(
                    endpoint=endpoint,
                    tenant=tenant_name,
                    status=status,
                    wall_ms=wall_ms,
                    bytes_in=bytes_in,
                    rejected=rejected,
                )
                app.log_event(
                    "request",
                    request_id=request_id,
                    method=method,
                    path=path,
                    tenant=tenant_name,
                    status=status,
                    wall_ms=round(wall_ms, 3),
                    bytes_in=bytes_in,
                    trace_id=ctx.trace_id if ctx is not None else None,
                    span_id=ctx.span_id if ctx is not None else None,
                )
