"""Worker process: the full single-process serving stack plus admin doors.

``worker_main`` is the child entry point.  Each worker:

* attaches every published model out of the shared weight spool
  (:mod:`.shm`) at the exact versions the parent dictated — zero-copy
  views into the copy-on-write blobs, so N workers share one physical
  copy of each version's weights;
* runs the unmodified :class:`~repro.serving.batcher.MicroBatcher` and
  :class:`~repro.serving.registry.ModelRegistry` behind its own HTTP
  server on an ephemeral port, so the per-worker determinism contract
  (batched outputs bit-identical to ``single_forward``) is exactly the
  single-process contract;
* heartbeats over its control pipe so the supervisor can tell a hung
  worker from a busy one, and drains cleanly on SIGTERM/SIGINT.

Admin side doors (front-end/supervisor only, never proxied):

* ``GET  /admin/metrics`` — renders this worker's metrics **without
  counting the scrape**, so cluster aggregation never perturbs what it
  measures;
* ``POST /admin/reload``  — ``{"name", "version"}``: attach that spool
  version and hot-swap the registry entry (one atomic assignment);
* ``POST /admin/crash``   — hard ``os._exit`` for supervision tests.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ...obs import runtime as _obs
from ..registry import ModelRegistry
from ..server import ForecastServer, RequestError, ServingConfig, _Handler
from .shm import WeightStore

#: Control-pipe message kinds (worker -> supervisor).
MSG_READY = "ready"
MSG_HEARTBEAT = "heartbeat"
MSG_STOPPING = "stopping"


@dataclass
class WorkerSpec:
    """Everything a worker needs to boot (picklable; fork- and spawn-safe)."""

    worker_id: int
    host: str
    spool_dir: str
    # (serving name, published spool version) pairs; respawns get the
    # versions current at respawn time, so a replacement worker always
    # rejoins at the cluster's live weights.
    models: List[Tuple[str, int]] = field(default_factory=list)
    serving: ServingConfig = field(default_factory=ServingConfig)
    expect_task: Optional[str] = None
    trace_path: Optional[str] = None
    heartbeat_interval_s: float = 0.25
    drain_timeout_s: float = 10.0


class ClusterWorkerHandler(_Handler):
    """The single-process handler plus uncounted admin side doors."""

    def do_GET(self) -> None:  # noqa: D102
        if self.path == "/admin/metrics":
            # No span, no request counter: aggregation scrapes must not
            # show up in the numbers they aggregate.
            self._send_text(200, self._srv.metrics.render(),
                            "text/plain; version=0.0.4; charset=utf-8")
            return
        with self._srv.track_request():
            super().do_GET()

    def do_POST(self) -> None:  # noqa: D102
        if self.path == "/admin/reload":
            self._admin_reload()
            return
        if self.path == "/admin/crash":
            os._exit(3)        # supervision tests: die mid-service
        with self._srv.track_request():
            super().do_POST()

    def _admin_reload(self) -> None:
        srv = self._srv
        try:
            payload = self._read_json()
            name = payload.get("name")
            version = payload.get("version")
            if not isinstance(name, str) or not isinstance(version, int):
                raise _bad_request(
                    'reload needs {"name": str, "version": int}')
            shared = srv.store.attach(name, version)
            if name in srv.registry.names():
                entry = srv.registry.reload_attached(
                    name, shared, version=version)
            else:
                entry = srv.registry.load_attached(
                    name, shared, version=version)
            ob = _obs.active()
            if ob is not None:
                ob.event("worker.reload", {"worker": srv.worker_id,
                                           "model": name,
                                           "version": version})
            self._send_json(200, {"name": entry.name,
                                  "version": entry.version})
        except RequestError as err:
            self._send_json(err.status, err.body(), err.retry_after_s)
        except (OSError, KeyError, ValueError) as err:
            self._send_json(500, {"error": {"type": "reload_failed",
                                            "detail": str(err)}})


def _bad_request(detail: str) -> RequestError:
    return RequestError(400, "invalid_request", detail)


class WorkerServer(ForecastServer):
    """ForecastServer variant safe to drain under keep-alive connections.

    The base class joins handler threads on close, which hangs while any
    client holds a persistent connection open.  Workers instead use
    daemon handler threads plus an explicit in-flight request counter:
    drain = stop accepting, wait for in-flight requests (not
    connections) to hit zero, then drain the batcher.
    """

    daemon_threads = True
    block_on_close = False

    def __init__(self, *args, worker_id: int = 0,
                 store: Optional[WeightStore] = None, **kwargs):
        self.worker_id = worker_id
        self.store = store
        self._inflight = 0
        self._idle = threading.Condition()
        super().__init__(*args, **kwargs)

    def track_request(self):
        return _Inflight(self)

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is mid-handling (True) or timeout."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True


class _Inflight:
    def __init__(self, server: WorkerServer):
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


def worker_main(spec: WorkerSpec, conn) -> int:
    """Child-process entry point: attach weights, serve, drain on signal.

    ``conn`` is the worker end of the control pipe; the worker sends
    ``ready`` (with its bound port) once serving, then ``heartbeat``
    every ``heartbeat_interval_s``, and ``stopping`` on its way out.
    """
    # Never trust an inherited observer: under fork the parent's sink
    # object is shared and closing it here would corrupt the parent's.
    # Swap it away untouched, then configure a fresh appender onto the
    # same JSONL path (O_APPEND single-line writes interleave safely).
    _obs.swap(None)
    if spec.trace_path:
        _obs.configure(path=spec.trace_path)

    store = WeightStore(spec.spool_dir)
    registry = ModelRegistry(expect_task=spec.expect_task)
    for name, version in spec.models:
        registry.load_attached(name, store.attach(name, version),
                               version=version)

    serving = ServingConfig(**{**spec.serving.__dict__,
                               "host": spec.host, "port": 0})
    server = WorkerServer(serving, registry,
                          handler_cls=ClusterWorkerHandler,
                          worker_id=spec.worker_id, store=store)
    port = server.server_address[1]

    ob = _obs.active()
    if ob is not None:
        ob.event("worker.start", {"worker": spec.worker_id,
                                  "pid": os.getpid(), "port": port,
                                  "models": [list(m) for m in spec.models]})

    # One-shot: a terminal Ctrl-C delivers SIGINT to the whole process
    # group, so the worker may already be draining when the supervisor's
    # SIGTERM arrives — a second raise here would abort the drain.
    def _on_signal(_signum, _frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    stop_beat = threading.Event()

    def _heartbeat():
        while not stop_beat.wait(spec.heartbeat_interval_s):
            try:
                conn.send({"kind": MSG_HEARTBEAT, "worker": spec.worker_id,
                           "t": time.monotonic()})
            except (OSError, EOFError, BrokenPipeError):
                # Parent is gone: stop serving rather than orphan.
                threading.Thread(target=server.shutdown,
                                 daemon=True).start()
                return

    conn.send({"kind": MSG_READY, "worker": spec.worker_id,
               "pid": os.getpid(), "port": port})
    beat = threading.Thread(target=_heartbeat, daemon=True,
                            name=f"repro-worker-{spec.worker_id}-beat")
    beat.start()

    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        stop_beat.set()
        threading.Thread(target=server.shutdown, daemon=True).start()
        server.wait_idle(spec.drain_timeout_s)
        server.batcher.close(drain=True, timeout=spec.drain_timeout_s)
        server.server_close()
        if ob is not None:
            ob.event("worker.stop", {"worker": spec.worker_id,
                                     "pid": os.getpid()})
        _obs.shutdown()
        try:
            conn.send({"kind": MSG_STOPPING, "worker": spec.worker_id})
        except (OSError, EOFError, BrokenPipeError):
            pass
    return 0
