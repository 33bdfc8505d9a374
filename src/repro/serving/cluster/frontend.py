"""Cluster front end: accept, route, proxy, aggregate, drain.

The :class:`ClusterServer` is a thin acceptor in front of the worker
pool.  For inference POSTs it:

* reads the request body once, extracts the routing key (the named
  model, else the task path) — the body bytes are then forwarded
  **verbatim** and the worker's response bytes are relayed verbatim, so
  the proxied path trivially preserves the bit-identity contract;
* asks the :class:`~.routing.Router` for the dispatch order (rotated
  warm set, then deterministic spillover) over the currently alive
  workers, and walks it: a connection-level failure (worker crashed
  mid-request) retries the next candidate; an HTTP error (including a
  worker's adaptive ``503 Retry-After``) is relayed as-is — spillover
  re-routes around dead workers, never around backpressure;
* stamps ``X-Trace-Id``/``X-Parent-Span`` from its own ``http.request``
  span onto the proxied request, so the worker's span (and the
  ``batch.execute`` spans under it) nest inside the originating request
  in ``repro trace`` reports.

``GET /metrics`` renders the front end's own series followed by the
merged worker expositions (scraped via each worker's uncounted
``/admin/metrics`` side door).  ``POST /admin/reload`` publishes a new
checkpoint version into the spool and hot-swaps every worker.
"""

from __future__ import annotations

import http.client
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ...obs import console as _console
from ...obs import context as _obs_context
from ...obs import runtime as _obs
from ..server import RequestError, ServingConfig, request_content_length
from .config import ClusterConfig
from .metrics import ClusterMetrics, merge_expositions
from .routing import HashRing, NoWorkerAvailable, Router
from .shm import WeightStore
from .supervisor import WorkerPool


class _ProxyError(Exception):
    """Every candidate worker failed at the connection level."""


class ClusterHandler(BaseHTTPRequestHandler):
    server_version = "repro-cluster/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # noqa: D102
        pass

    @property
    def _srv(self) -> "ClusterServer":
        return self.server  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: dict,
                   retry_after_s: Optional[float] = None) -> None:
        self._send_raw(status, json.dumps(payload).encode("utf-8"),
                       "application/json", retry_after_s)

    def _send_raw(self, status: int, body: bytes, content_type: str,
                  retry_after_s: Optional[float] = None,
                  retry_after_text: Optional[str] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after_text is not None:
            self.send_header("Retry-After", retry_after_text)
        elif retry_after_s is not None:
            self.send_header("Retry-After", f"{retry_after_s:.3f}")
        ref = _obs_context.current()
        if ref is not None:
            self.send_header("X-Trace-Id", ref.trace_id)
        self.end_headers()
        self.wfile.write(body)
        started = getattr(self, "_request_started", None)
        latency = (time.monotonic() - started) if started is not None else None
        self._srv.metrics.observe_request(status, latency_s=latency)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: D102
        self._request_started = time.monotonic()
        ob = _obs.active()
        with self._srv.track_request():
            if ob is None:
                self._handle_get()
                return
            with ob.span("http.request", {"method": "GET",
                                          "path": self.path,
                                          "tier": "frontend"}):
                self._handle_get()

    def do_POST(self) -> None:  # noqa: D102
        self._request_started = time.monotonic()
        ob = _obs.active()
        with self._srv.track_request():
            if ob is None:
                self._handle_post()
                return
            with ob.span("http.request", {"method": "POST",
                                          "path": self.path,
                                          "tier": "frontend"}):
                self._handle_post()

    # ------------------------------------------------------------------
    def _handle_get(self) -> None:
        srv = self._srv
        if self.path == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "workers": srv.pool.config.workers,
                "alive": srv.pool.alive_ids(),
                "models": srv.store.names(),
            })
        elif self.path == "/metrics":
            self._send_raw(200, srv.render_metrics().encode("utf-8"),
                           "text/plain; version=0.0.4; charset=utf-8")
        elif self.path == "/v1/models":
            self._proxy_request("GET", self.path, b"", key="models")
        else:
            self._send_json(404, {"error": {"type": "not_found",
                                            "detail": self.path}})

    def _handle_post(self) -> None:
        srv = self._srv
        if self.path == "/admin/reload":
            self._admin_reload()
            return
        if not self.path.startswith("/v1/"):
            self._send_json(404, {"error": {"type": "not_found",
                                            "detail": self.path}})
            return
        try:
            length = request_content_length(self)
        except RequestError as err:
            self._send_json(err.status, err.body())
            return
        if length > srv.config.serving.max_body_bytes:
            self._send_json(413, {"error": {
                "type": "payload_too_large",
                "detail": f"body of {length} bytes exceeds limit"}})
            return
        body = self.rfile.read(length) if length > 0 else b""
        # Routing key: the named model binds a request to its warm set;
        # unnamed requests group by task endpoint instead.
        key = self.path
        try:
            payload = json.loads(body)
            if isinstance(payload, dict) and payload.get("model"):
                key = str(payload["model"])
        except ValueError:
            pass                       # workers own body validation
        self._proxy_request("POST", self.path, body, key=key)

    def _admin_reload(self) -> None:
        srv = self._srv
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
            name = payload.get("name")
            checkpoint = payload.get("checkpoint")
            if not isinstance(name, str) or not isinstance(checkpoint, str):
                self._send_json(400, {"error": {
                    "type": "invalid_request",
                    "detail": 'reload needs {"name": str, '
                              '"checkpoint": str}'}})
                return
            version = srv.pool.reload(name, checkpoint)
            self._send_json(200, {"name": name, "version": version})
        except (OSError, ValueError, RuntimeError) as err:
            self._send_json(500, {"error": {"type": "reload_failed",
                                            "detail": str(err)}})

    # ------------------------------------------------------------------
    def _proxy_request(self, method: str, path: str, body: bytes,
                       key: str) -> None:
        srv = self._srv
        try:
            order = srv.router.route(key, srv.pool.alive_ids())
        except NoWorkerAvailable:
            srv.metrics.observe_shed()
            self._send_json(503, {"error": {
                "type": "no_workers",
                "detail": "no alive worker to serve the request"}},
                retry_after_s=1.0)
            return
        headers = {"Content-Type": "application/json"}
        ref = _obs_context.current()
        if ref is not None:
            headers["X-Trace-Id"] = ref.trace_id
            headers["X-Parent-Span"] = ref.span_id
        last_error: Optional[Exception] = None
        for attempt, worker_id in enumerate(order):
            port = srv.pool.endpoint(worker_id)
            if port is None:
                continue
            if attempt > 0:
                srv.metrics.observe_retry()
            try:
                status, resp_headers, resp_body = srv.worker_request(
                    worker_id, port, method, path, body, headers)
            except (OSError, http.client.HTTPException) as err:
                last_error = err
                continue
            self._send_raw(
                status, resp_body,
                resp_headers.get("Content-Type", "application/json"),
                retry_after_text=resp_headers.get("Retry-After"))
            return
        srv.metrics.observe_shed()
        self._send_json(503, {"error": {
            "type": "no_workers",
            "detail": f"every candidate worker failed: {last_error}"}},
            retry_after_s=1.0)


class ClusterServer(ThreadingHTTPServer):
    """Acceptor + router in front of a :class:`WorkerPool`."""

    daemon_threads = True
    block_on_close = False

    def __init__(self, config: ClusterConfig, pool: WorkerPool,
                 store: WeightStore,
                 metrics: Optional[ClusterMetrics] = None):
        self.config = config
        self.pool = pool
        self.store = store
        self.metrics = metrics or pool.metrics
        self.router = Router(
            HashRing(list(range(config.workers)), replicas=config.replicas),
            spread=config.spread)
        self._local = threading.local()
        # Proxy timeout: a worker answers within its own deadline; the
        # margin covers connection setup and response serialisation.
        self._proxy_timeout = config.serving.max_timeout_ms / 1e3 + 5.0
        self._inflight = 0
        self._idle = threading.Condition()
        super().__init__((config.host, config.port), ClusterHandler)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    def track_request(self):
        return _Inflight(self)

    def wait_idle(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # ------------------------------------------------------------------
    def _connection(self, worker_id: int, port: int):
        conns: Dict[Tuple[int, int], http.client.HTTPConnection]
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = {}
        conn = conns.get((worker_id, port))
        if conn is None:
            conn = http.client.HTTPConnection(
                self.config.host, port, timeout=self._proxy_timeout)
            conns[(worker_id, port)] = conn
        return conn

    def _drop_connection(self, worker_id: int, port: int) -> None:
        conns = getattr(self._local, "conns", None)
        if conns is None:
            return
        conn = conns.pop((worker_id, port), None)
        if conn is not None:
            conn.close()

    def worker_request(self, worker_id: int, port: int, method: str,
                       path: str, body: bytes,
                       headers: Dict[str, str]):
        """One proxied request over this thread's persistent connection.

        A stale keep-alive socket (worker restarted, idle timeout) fails
        on first use; one transparent reconnect to the *same* worker
        covers that before the caller moves to the next candidate.
        """
        for fresh in (False, True):
            if fresh:
                self._drop_connection(worker_id, port)
            conn = self._connection(worker_id, port)
            try:
                conn.request(method, path, body=body or None,
                             headers=headers)
                resp = conn.getresponse()
                resp_body = resp.read()
                return resp.status, dict(resp.getheaders()), resp_body
            except (OSError, http.client.HTTPException):
                self._drop_connection(worker_id, port)
                if fresh:
                    raise
        raise http.client.HTTPException("unreachable")

    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """Front-end series + merged worker expositions, one scrape."""
        texts = []
        for worker_id in self.pool.alive_ids():
            port = self.pool.endpoint(worker_id)
            if port is None:
                continue
            try:
                status, _, body = self.worker_request(
                    worker_id, port, "GET", "/admin/metrics", b"", {})
            except (OSError, http.client.HTTPException):
                continue
            if status == 200:
                texts.append(body.decode("utf-8"))
        own = self.metrics.render()
        workers = merge_expositions(texts)
        return own + workers

    def drain(self) -> None:
        """Finish in-flight proxies, drain the pool, release the socket."""
        self.wait_idle(self.config.drain_timeout_s)
        self.pool.drain()
        self.server_close()


class _Inflight:
    def __init__(self, server: ClusterServer):
        self._server = server

    def __enter__(self):
        with self._server._idle:
            self._server._inflight += 1
        return self

    def __exit__(self, *exc):
        with self._server._idle:
            self._server._inflight -= 1
            if self._server._inflight == 0:
                self._server._idle.notify_all()
        return False


# ----------------------------------------------------------------------
def build_cluster(config: ClusterConfig, checkpoints: Dict[str, str],
                  start: bool = True):
    """Publish checkpoints, boot the pool, return the front-end server.

    ``checkpoints`` maps serving names to checkpoint paths.  Returns the
    :class:`ClusterServer` (its ``pool``/``store`` hang off it); with
    ``start=False`` the pool is not spawned (tests wiring their own).
    """
    if config.spool_dir is None:
        import tempfile
        config.spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
    store = WeightStore(config.spool_dir)
    for name, path in checkpoints.items():
        store.publish(name, path, expect_task=config.expect_task)
    metrics = ClusterMetrics()
    if config.slo:
        from ...obs.slo import SLOTracker, load_objectives
        metrics.attach_slo(SLOTracker(load_objectives(config.slo),
                                      registry=metrics.registry))
    pool = WorkerPool(config, store, metrics=metrics)
    if start:
        pool.start()
    return ClusterServer(config, pool, store, metrics=metrics)


def _lifecycle(message: str, verbose: bool) -> None:
    if verbose:
        _console.emit_line(message)
    ob = _obs.active()
    if ob is not None:
        ob.event("server.lifecycle", {"message": message})


def run_cluster(server: ClusterServer, verbose: bool = True) -> int:
    """Serve until SIGINT/SIGTERM, then drain the whole cluster."""
    pool = server.pool
    _lifecycle(
        f"cluster serving on {server.address}  "
        f"({len(pool.alive_ids())}/{pool.config.workers} workers, "
        f"models: {', '.join(server.store.names()) or 'none'})", verbose)
    for worker_id in pool.alive_ids():
        handle = pool.handles[worker_id]
        _lifecycle(f"  worker {worker_id}: pid={handle.pid} "
                   f"port={handle.port}", verbose)

    previous = signal.getsignal(signal.SIGTERM)

    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:             # not on the main thread (tests)
        previous = None

    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        _lifecycle("\nshutting down: draining cluster ...", verbose)
    finally:
        threading.Thread(target=server.shutdown, daemon=True).start()
        server.drain()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    _lifecycle("cluster drained; bye", verbose)
    return 0


# ServingConfig is re-exported so cluster callers configure workers
# without importing the single-process module directly.
__all__ = ["ClusterHandler", "ClusterServer", "ServingConfig",
           "build_cluster", "run_cluster"]
