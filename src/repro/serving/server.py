"""Threaded HTTP front end for the micro-batched inference service.

Endpoints (JSON in/out, stdlib ``http.server`` only):

* ``POST /v1/<task>``    — one endpoint per registered
  :class:`~repro.tasks.registry.TaskSpec` (``/v1/forecast``,
  ``/v1/imputation``, ``/v1/anomaly``, ``/v1/classification``); body
  ``{"model": name?, "window": [[...], ...]}`` or ``{"windows": [...]}``
  for a client-side batch; optional ``"timeout_ms"``.  The response keys
  come from the task's :class:`~repro.tasks.registry.ServingContract`
  (``predictions``/``reconstructions``/``scores``/``classifications``),
  and every task's batched outputs stay bit-identical to single forwards
  under its declared batch policy.
* ``GET  /v1/models``    — registered checkpoints and their batch policies.
* ``GET  /healthz``      — liveness (also reports queue depth).
* ``GET  /metrics``      — Prometheus text exposition (see ``metrics.py``).

Robustness contract:

* bounded queue → ``503`` with ``Retry-After`` (load shedding, never a
  hang); unknown task endpoint or model → ``404`` naming the known ones;
  model registered for a different task than the endpoint → ``400``;
  malformed body or wrong window shape → structured ``400``; expired
  deadline → ``504``;
* every request runs under a deadline (client ``timeout_ms`` clamped to
  ``max_timeout_ms``, default ``default_timeout_ms``);
* SIGINT/SIGTERM stop accepting connections, drain the batcher (queued
  windows still execute and respond), then join handler threads.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

import numpy as np

from ..obs import console as _console
from ..obs import context as _obs_context
from ..obs import runtime as _obs
from ..tasks.registry import UnknownTaskError, get_task, task_names
from .batcher import (
    BatcherClosedError, DeadlineExceededError, InvalidWindowError,
    MicroBatcher, QueueFullError,
)
from .metrics import ServerMetrics
from .registry import ModelRegistry, UnknownModelError


@dataclass
class ServingConfig:
    """Tunables of the serving stack (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8321
    max_batch_size: int = 16
    max_wait_ms: float = 2.0
    queue_size: int = 256
    default_timeout_ms: float = 2000.0
    max_timeout_ms: float = 30000.0
    max_body_bytes: int = 8 << 20
    # SLO objectives: None = off, "default" = the stock pair, else a
    # JSON config path (see repro.obs.slo.load_objectives).
    slo: Optional[str] = None


class RequestError(Exception):
    """An HTTP error response with a structured JSON body."""

    def __init__(self, status: int, error_type: str, detail: str,
                 retry_after_s: Optional[float] = None):
        super().__init__(detail)
        self.status = status
        self.error_type = error_type
        self.detail = detail
        self.retry_after_s = retry_after_s

    def body(self) -> dict:
        return {"error": {"type": self.error_type, "detail": self.detail}}


def request_content_length(handler: BaseHTTPRequestHandler) -> int:
    """The request's ``Content-Length`` (0 when absent).

    A value that is not an integer leaves the body's extent unknown, so
    the connection cannot carry another request: it is marked to close
    after the ``400 invalid_request`` the caller answers with.
    """
    raw = handler.headers.get("Content-Length") or 0
    try:
        return int(raw)
    except ValueError:
        handler.close_connection = True
        raise RequestError(400, "invalid_request",
                           f"Content-Length {raw!r} is not an integer"
                           ) from None


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate writes; without TCP_NODELAY the
    # second one can stall ~40ms behind Nagle + the peer's delayed ACK.
    disable_nagle_algorithm = True

    # quiet by default; per-request logging belongs to /metrics
    def log_message(self, fmt, *args):  # noqa: D102
        pass

    # ------------------------------------------------------------------
    @property
    def _srv(self) -> "ForecastServer":
        return self.server  # type: ignore[return-value]

    def _send_json(self, status: int, payload: dict,
                   retry_after_s: Optional[float] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", f"{retry_after_s:.3f}")
        self._send_trace_header()
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self._send_trace_header()
        self.end_headers()
        self.wfile.write(body)

    def _send_trace_header(self) -> None:
        # Inside an http.request span (observer configured) the handler
        # thread's current span carries the trace id; echo it so a client
        # can find its request in the JSONL run log (`repro trace`).
        ref = _obs_context.current()
        if ref is not None:
            self.send_header("X-Trace-Id", ref.trace_id)

    def _inbound_parent(self) -> Optional[_obs_context.SpanRef]:
        """Cross-process trace continuation from the request headers.

        The cluster front end forwards its ``http.request`` span as
        ``X-Trace-Id``/``X-Parent-Span``; adopting it as this span's
        parent makes the worker's handling (and the ``batch.execute``
        spans under it) nest inside the originating request in
        ``repro trace`` reports.
        """
        trace_id = self.headers.get("X-Trace-Id")
        parent_span = self.headers.get("X-Parent-Span")
        if trace_id and parent_span:
            return _obs_context.SpanRef(trace_id, parent_span)
        return None

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        ob = _obs.active()
        if ob is None:
            self._handle_get()
            return
        with ob.span("http.request", {"method": "GET", "path": self.path},
                     parent=self._inbound_parent()) as span:
            span.set(status_code=self._handle_get())

    def _handle_get(self) -> int:
        srv = self._srv
        if self.path == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "models": srv.registry.names(),
                "queue_depth": srv.batcher.queue_depth(),
            })
            status = 200
        elif self.path == "/v1/models":
            self._send_json(200, {"models": srv.registry.describe()})
            status = 200
        elif self.path == "/metrics":
            self._send_text(200, srv.metrics.render(),
                            "text/plain; version=0.0.4; charset=utf-8")
            status = 200
        else:
            self._send_json(404, {"error": {"type": "not_found",
                                            "detail": self.path}})
            status = 404
        srv.metrics.observe_request(status)
        return status

    def do_POST(self) -> None:
        ob = _obs.active()
        if ob is None:
            self._handle_post()
            return
        with ob.span("http.request", {"method": "POST", "path": self.path},
                     parent=self._inbound_parent()) as span:
            span.set(status_code=self._handle_post())

    def _handle_post(self) -> int:
        srv = self._srv
        start = time.perf_counter()
        try:
            prefix, _, task = self.path.partition("/v1/")
            if prefix or not task:
                raise RequestError(404, "not_found", self.path)
            try:
                spec = get_task(task)
            except UnknownTaskError:
                raise RequestError(
                    404, "unknown_task",
                    f"no task endpoint {self.path!r}; known: "
                    + ", ".join(f"/v1/{n}" for n in task_names())) from None
            payload = self._read_json()
            response = self._infer(spec, payload)
            self._send_json(200, response)
            status = 200
        except RequestError as err:
            self._send_json(err.status, err.body(), err.retry_after_s)
            status = err.status
        srv.metrics.observe_request(status, time.perf_counter() - start)
        return status

    # ------------------------------------------------------------------
    def _read_json(self) -> dict:
        length = request_content_length(self)
        if length <= 0:
            raise RequestError(400, "invalid_request", "empty request body")
        if length > self._srv.config.max_body_bytes:
            raise RequestError(413, "payload_too_large",
                               f"body of {length} bytes exceeds limit")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as err:
            raise RequestError(400, "invalid_json", str(err)) from None
        if not isinstance(payload, dict):
            raise RequestError(400, "invalid_request",
                               "body must be a JSON object")
        return payload

    def _infer(self, spec, payload: dict) -> dict:
        srv = self._srv
        cfg = srv.config

        name = payload.get("model") or srv.registry.default_name(
            task=spec.name)
        if not name:
            raise RequestError(
                400, "invalid_request",
                f"no unique model serves task {spec.name!r}; pass "
                f"\"model\": <name> (registered: {srv.registry.names()})")
        try:
            entry = srv.registry.get(name)
        except UnknownModelError:
            raise RequestError(
                404, "unknown_model",
                f"no model {name!r}; registered: {srv.registry.names()}"
            ) from None
        if entry.task != spec.name:
            raise RequestError(
                400, "task_mismatch",
                f"model {name!r} was trained for task {entry.task!r}, not "
                f"{spec.name!r}; POST it to /v1/{entry.task}")

        if "window" in payload and "windows" in payload:
            raise RequestError(400, "invalid_request",
                               'pass either "window" or "windows", not both')
        if "window" in payload:
            windows, single = [payload["window"]], True
        elif "windows" in payload:
            windows, single = payload["windows"], False
            if not isinstance(windows, list) or not windows:
                raise RequestError(400, "invalid_request",
                                   '"windows" must be a non-empty list')
        else:
            raise RequestError(400, "invalid_request",
                               'body needs a "window" (seq_len x c_in) or '
                               '"windows" list')

        timeout_ms = payload.get("timeout_ms", cfg.default_timeout_ms)
        try:
            timeout_s = min(float(timeout_ms), cfg.max_timeout_ms) / 1e3
        except (TypeError, ValueError):
            raise RequestError(400, "invalid_request",
                               f"timeout_ms={timeout_ms!r} is not a number")
        if timeout_s <= 0:
            raise RequestError(400, "invalid_request",
                               "timeout_ms must be positive")

        futures = []
        arrays = []
        try:
            for window in windows:
                arr = self._parse_window(window)
                arrays.append(arr)
                futures.append(
                    srv.batcher.submit(name, arr, timeout_s=timeout_s))
        except UnknownModelError:
            raise RequestError(
                404, "unknown_model",
                f"no model {name!r}; registered: {srv.registry.names()}"
            ) from None
        except InvalidWindowError as err:
            raise RequestError(400, "invalid_window", str(err)) from None
        except (QueueFullError, BatcherClosedError) as err:
            # Shed the whole request; already-submitted windows still
            # execute but their rows are dropped (the client retries).
            # Retry-After is adaptive: the batcher estimates how long the
            # current backlog takes to drain at the recent service rate.
            raise RequestError(503, "overloaded", str(err),
                               retry_after_s=srv.batcher.retry_after_s()
                               ) from None

        deadline = time.monotonic() + timeout_s
        outputs = []
        for future in futures:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                outputs.append(future.result(timeout=remaining + 0.25))
            except DeadlineExceededError as err:
                raise RequestError(504, "deadline_exceeded", str(err)) from None
            except (TimeoutError, FutureTimeoutError):
                raise RequestError(504, "deadline_exceeded",
                                   f"no result within {timeout_s:.3f}s") from None
            except Exception as err:  # model failure inside the batch
                raise RequestError(500, "inference_error", str(err)) from None

        # Pure per-row postprocessing on the (bit-identical) batched model
        # outputs: the response inherits the determinism guarantee.
        contract = spec.serving
        try:
            rows = [contract.postprocess(entry, out, arr, payload)
                    for out, arr in zip(outputs, arrays)]
        except ValueError as err:
            raise RequestError(400, "invalid_request", str(err)) from None

        body = {"model": name, "version": entry.version,
                **contract.body_extra(entry), contract.plural: rows}
        if single:
            body[contract.singular] = rows[0]
        return body

    @staticmethod
    def _parse_window(window) -> np.ndarray:
        try:
            arr = np.asarray(window, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise RequestError(400, "invalid_window",
                               f"window is not numeric: {err}") from None
        if arr.ndim != 2:
            raise RequestError(400, "invalid_window",
                               f"window must be 2-D (seq_len x c_in), got "
                               f"shape {arr.shape}")
        return arr


class ForecastServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to a registry, batcher, and metrics sink."""

    daemon_threads = False     # join handler threads on close (drain)
    block_on_close = True

    def __init__(self, config: ServingConfig, registry: ModelRegistry,
                 batcher: Optional[MicroBatcher] = None,
                 metrics: Optional[ServerMetrics] = None,
                 handler_cls: type = _Handler):
        self.config = config
        self.registry = registry
        self.metrics = metrics or ServerMetrics()
        self.batcher = batcher or MicroBatcher(
            registry, max_batch_size=config.max_batch_size,
            max_wait_ms=config.max_wait_ms, queue_size=config.queue_size,
            metrics=self.metrics)
        super().__init__((config.host, config.port), handler_cls)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def drain(self) -> None:
        """Finish queued work and release sockets (idempotent)."""
        self.batcher.close(drain=True)
        self.server_close()


def build_server(config: ServingConfig, registry: ModelRegistry,
                 metrics: Optional[ServerMetrics] = None) -> ForecastServer:
    """Construct a ready-to-serve :class:`ForecastServer` (port 0 = ephemeral)."""
    server = ForecastServer(config, registry, metrics=metrics)
    if config.slo and server.metrics.slo is None:
        from ..obs.slo import SLOTracker, load_objectives
        server.metrics.attach_slo(SLOTracker(
            load_objectives(config.slo),
            registry=server.metrics.registry))
    return server


def _lifecycle(message: str, verbose: bool) -> None:
    """Route a server lifecycle line to the console and the event sink."""
    if verbose:
        _console.emit_line(message)
    ob = _obs.active()
    if ob is not None:
        ob.event("server.lifecycle", {"message": message})


def run_server(server: ForecastServer, verbose: bool = True) -> int:
    """Serve until SIGINT/SIGTERM, then drain in-flight work and exit 0."""
    for desc in server.registry.describe():
        _lifecycle(f"  model {desc['name']!r}: {desc['model']} "
                   f"(task={desc['task']}, seq_len={desc['seq_len']}, "
                   f"c_in={desc['c_in']}, policy={desc['batch_policy']})",
                   verbose)
    endpoints = ", ".join(f"POST /v1/{name}" for name in task_names())
    _lifecycle(f"serving on {server.address}  "
               f"({endpoints}, GET /v1/models, /healthz, /metrics)",
               verbose)

    previous = signal.getsignal(signal.SIGTERM)

    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:           # not on the main thread (tests)
        previous = None

    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        _lifecycle("\nshutting down: draining in-flight requests ...", verbose)
    finally:
        threading.Thread(target=server.shutdown, daemon=True).start()
        server.drain()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    _lifecycle("drained; bye", verbose)
    return 0
