"""Worker pool supervision: spawn, heartbeat liveness, respawn, drain.

The :class:`WorkerPool` owns the worker processes.  Each worker reports
over a one-way control pipe (``ready`` with its bound port, then
periodic ``heartbeat``\\ s); a supervision thread drains those pipes and
enforces two liveness rules:

* **crash detection** — the process exited: respawn (up to
  ``max_restarts`` per slot), re-attaching the spool's *current* weight
  versions so a replacement always rejoins at the cluster's live
  weights, never the versions its predecessor booted with;
* **hang detection** — the process is alive but its heartbeat went
  silent past ``heartbeat_timeout_s``: kill it and respawn the slot.

Every transition is emitted as a ``worker.lifecycle`` obs event and a
restart counter tick, so `repro trace` and the cluster ``/metrics``
scrape both tell the story.  ``drain()`` SIGTERMs every worker (their
handlers finish in-flight requests and drain their batchers) and joins
them; stragglers past the timeout are killed.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import threading
import time
from typing import Dict, List, Optional

from ...obs import runtime as _obs
from .config import ClusterConfig
from .metrics import ClusterMetrics
from .shm import WeightStore
from .worker import (
    MSG_HEARTBEAT, MSG_READY, MSG_STOPPING, WorkerSpec, worker_main,
)


class WorkerStartupError(RuntimeError):
    """A worker failed to report ready within the startup timeout."""


def _lifecycle_event(kind: str, **attrs) -> None:
    ob = _obs.active()
    if ob is not None:
        ob.event("worker.lifecycle", {"transition": kind, **attrs})


def post_json(host: str, port: int, path: str, payload: dict,
              timeout: float = 10.0) -> dict:
    """One-shot JSON POST to a worker's admin door (no keep-alive)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(payload).encode("utf-8")
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = json.loads(resp.read() or b"{}")
        if resp.status != 200:
            raise RuntimeError(f"{path} -> {resp.status}: {data}")
        return data
    finally:
        conn.close()


class WorkerHandle:
    """Parent-side view of one worker slot."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None               # parent (receive) end of the pipe
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self.last_beat: float = 0.0
        self.restarts: int = 0
        self.ready: bool = False

    @property
    def alive(self) -> bool:
        return bool(self.ready and self.process is not None
                    and self.process.is_alive())


class WorkerPool:
    """Spawns, watches, respawns, and drains the cluster's workers."""

    def __init__(self, config: ClusterConfig, store: WeightStore,
                 metrics: Optional[ClusterMetrics] = None,
                 startup_timeout_s: float = 30.0):
        self.config = config
        self.store = store
        self.metrics = metrics or ClusterMetrics()
        self.startup_timeout_s = startup_timeout_s
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0])
        self.handles: Dict[int, WorkerHandle] = {
            i: WorkerHandle(i) for i in range(config.workers)}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self.metrics.set_workers(config.workers)
        self.metrics.set_alive_fn(lambda: len(self.alive_ids()))

    # ------------------------------------------------------------------
    def _current_models(self) -> List:
        return [(name, self.store.current_version(name))
                for name in self.store.names()]

    def _spec(self, worker_id: int) -> WorkerSpec:
        cfg = self.config
        return WorkerSpec(
            worker_id=worker_id, host=cfg.host,
            spool_dir=self.store.spool_dir, models=self._current_models(),
            serving=cfg.serving,
            expect_task=cfg.expect_task, trace_path=cfg.trace_path,
            heartbeat_interval_s=cfg.heartbeat_interval_s,
            drain_timeout_s=cfg.drain_timeout_s)

    def _spawn(self, handle: WorkerHandle) -> None:
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main, args=(self._spec(handle.worker_id), send),
            name=f"repro-worker-{handle.worker_id}", daemon=True)
        process.start()
        send.close()                   # child's end lives in the child
        handle.process = process
        handle.conn = recv
        handle.ready = False
        handle.port = None
        handle.pid = process.pid
        handle.last_beat = time.monotonic()
        _lifecycle_event("spawn", worker=handle.worker_id, pid=process.pid)

    def _wait_ready(self, handle: WorkerHandle, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not handle.process.is_alive():
                break
            if handle.conn.poll(0.05):
                try:
                    msg = handle.conn.recv()
                except (EOFError, OSError):
                    break
                if msg.get("kind") == MSG_READY:
                    handle.port = msg["port"]
                    handle.pid = msg["pid"]
                    handle.ready = True
                    handle.last_beat = time.monotonic()
                    _lifecycle_event("ready", worker=handle.worker_id,
                                     pid=handle.pid, port=handle.port)
                    return
        raise WorkerStartupError(
            f"worker {handle.worker_id} did not become ready within "
            f"{timeout:.1f}s (exitcode={handle.process.exitcode})")

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker, wait until all are ready, start supervision."""
        for handle in self.handles.values():
            self._spawn(handle)
        for handle in self.handles.values():
            self._wait_ready(handle, self.startup_timeout_s)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-cluster-supervisor",
            daemon=True)
        self._supervisor.start()

    def alive_ids(self) -> List[int]:
        return sorted(wid for wid, h in self.handles.items() if h.alive)

    def endpoint(self, worker_id: int):
        handle = self.handles[worker_id]
        return handle.port

    # ------------------------------------------------------------------
    def _drain_pipe(self, handle: WorkerHandle) -> None:
        while handle.conn is not None and handle.conn.poll(0):
            try:
                msg = handle.conn.recv()
            except (EOFError, OSError):
                return
            if msg.get("kind") in (MSG_HEARTBEAT, MSG_STOPPING):
                handle.last_beat = time.monotonic()

    def _respawn(self, handle: WorkerHandle, reason: str) -> None:
        handle.restarts += 1
        self.metrics.observe_restart(handle.worker_id)
        _lifecycle_event(reason, worker=handle.worker_id, pid=handle.pid,
                         restarts=handle.restarts)
        if handle.restarts > self.config.max_restarts:
            _lifecycle_event("giveup", worker=handle.worker_id,
                             restarts=handle.restarts)
            handle.ready = False
            return
        self._spawn(handle)
        try:
            self._wait_ready(handle, self.startup_timeout_s)
            _lifecycle_event("respawned", worker=handle.worker_id,
                             pid=handle.pid, port=handle.port)
        except WorkerStartupError:
            handle.ready = False

    def _supervise(self) -> None:
        cfg = self.config
        while not self._stop.wait(cfg.supervise_interval_s):
            with self._lock:
                for handle in self.handles.values():
                    if handle.conn is None:
                        continue
                    self._drain_pipe(handle)
                    if self._stop.is_set():
                        return
                    process = handle.process
                    if process is not None and not process.is_alive():
                        self._respawn(handle, "crashed")
                        continue
                    silent = time.monotonic() - handle.last_beat
                    if handle.ready and silent > cfg.heartbeat_timeout_s:
                        _lifecycle_event("hung", worker=handle.worker_id,
                                         pid=handle.pid,
                                         silent_s=round(silent, 3))
                        if process is not None and process.is_alive():
                            process.kill()
                            process.join(timeout=5.0)
                        self._respawn(handle, "hung-killed")

    # ------------------------------------------------------------------
    def reload(self, name: str, checkpoint_path: str) -> int:
        """Publish a new version and hot-swap it on every alive worker."""
        version, _ = self.store.publish(name, checkpoint_path,
                                        expect_task=self.config.expect_task)
        with self._lock:
            targets = [(h.worker_id, h.port)
                       for h in self.handles.values() if h.alive]
        for worker_id, port in targets:
            post_json(self.config.host, port, "/admin/reload",
                      {"name": name, "version": version})
            _lifecycle_event("reloaded", worker=worker_id, model=name,
                             version=version)
        return version

    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop supervision, SIGTERM every worker, join (kill stragglers)."""
        timeout = self.config.drain_timeout_s if timeout is None else timeout
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        with self._lock:
            handles = list(self.handles.values())
        for handle in handles:
            process = handle.process
            if process is not None and process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except (OSError, TypeError):
                    pass
        deadline = time.monotonic() + timeout
        for handle in handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                _lifecycle_event("drain-killed", worker=handle.worker_id,
                                 pid=handle.pid)
                process.kill()
                process.join(timeout=5.0)
            handle.ready = False
            _lifecycle_event("drained", worker=handle.worker_id)
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
