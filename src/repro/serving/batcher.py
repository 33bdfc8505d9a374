"""Dynamic micro-batcher: queue windows, flush on size or timeout.

Requests enter a bounded queue (admission control: a full queue raises
:class:`QueueFullError` immediately — callers shed load with a 503 instead
of stacking unbounded latency).  A single worker thread collects up to
``max_batch_size`` requests, waiting at most ``max_wait_ms`` after the
first one, then executes **one stacked ``no_grad`` forward per
determinism group** and resolves each request's future with its row.

Determinism guarantee
---------------------
Batched outputs are bit-identical to single-request forwards.  Windows are
grouped by a key that includes the model entry's ``(name, version)``,
the window shape/dtype, and — for ``signature``-policy models like TS3Net —
the per-window ``batch_signature`` (ordered top-k spectral picks), so no
stacked forward ever mixes windows whose joint forward could differ from
their solo forwards.  ``solo``-policy models get a unique key per request
(batch size 1 by construction).  :func:`single_forward` is the reference
the batched path must match ``repr``-exactly; both run under the same
``precision(entry.dtype)`` scope so dtype coercion is identical.

The worker runs under the *thread-local* autodiff mode state: its
``no_grad`` scope cannot flip grad recording for a training loop on
another thread (see ``repro.autodiff.tensor._EngineState``).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..autodiff import Tensor, no_grad, precision
from ..obs import context as _obs_context
from ..obs import runtime as _obs
from .metrics import ServerMetrics
from .registry import ModelEntry, ModelRegistry


class QueueFullError(RuntimeError):
    """Admission control: the request queue is at capacity (serve a 503)."""


class DeadlineExceededError(TimeoutError):
    """The request's deadline expired before its batch executed (504)."""


class BatcherClosedError(RuntimeError):
    """The batcher is shutting down and no longer admits requests (503)."""


class InvalidWindowError(ValueError):
    """The submitted window fails shape/finiteness validation (400)."""


def _validate_window(entry: ModelEntry, window) -> np.ndarray:
    arr = np.asarray(window)
    expected = (entry.seq_len, entry.c_in)
    if arr.shape != expected:
        raise InvalidWindowError(
            f"window shape {arr.shape} does not match model "
            f"{entry.name!r} input {expected} (seq_len, c_in)")
    if not np.issubdtype(arr.dtype, np.number):
        raise InvalidWindowError(
            f"window dtype {arr.dtype} is not numeric")
    arr = arr.astype(entry.dtype, copy=False)
    if not np.all(np.isfinite(arr)):
        raise InvalidWindowError("window contains NaN or Inf values")
    return arr


def single_forward(entry: ModelEntry, window) -> np.ndarray:
    """Reference un-batched forward; batched rows must equal this bitwise."""
    arr = _validate_window(entry, window)
    with precision(entry.dtype), no_grad():
        return entry.model(Tensor(arr[None])).data[0]


@dataclass
class _Pending:
    """One queued window with its resolution future."""

    entry: ModelEntry
    window: np.ndarray
    key: tuple
    future: Future
    enqueued_at: float
    deadline: Optional[float]  # monotonic; None = no deadline
    # The submitting thread's span ref (the http.request span) so the
    # batch.execute span can link every member request it served.
    trace: Optional[_obs_context.SpanRef] = None


class MicroBatcher:
    """Queues windows per model and serves them in stacked forwards."""

    def __init__(self, registry: ModelRegistry, *, max_batch_size: int = 16,
                 max_wait_ms: float = 2.0, queue_size: int = 256,
                 metrics: Optional[ServerMetrics] = None, start: bool = True):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.registry = registry
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1e3
        self.metrics = metrics or ServerMetrics()
        self._queue: "queue.Queue[_Pending]" = queue.Queue(maxsize=queue_size)
        self._closing = False
        self._discard = False
        self._solo_ticket = itertools.count()
        # Recent (monotonic time, requests resolved) flush records; the
        # basis for the adaptive 503 Retry-After hint (see retry_after_s).
        self._drain_lock = threading.Lock()
        self._drained: "deque" = deque(maxlen=64)
        self._worker: Optional[threading.Thread] = None
        self.metrics.set_queue_depth_fn(self._queue.qsize)
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def _batch_key(self, entry: ModelEntry, window: np.ndarray) -> tuple:
        base = (entry.name, entry.version, window.shape, str(window.dtype))
        if entry.policy == "stack":
            return base
        if entry.policy == "signature":
            return base + tuple(entry.model.batch_signature(window))
        return base + ("solo", next(self._solo_ticket))

    def submit(self, name: str, window, *,
               timeout_s: Optional[float] = None) -> Future:
        """Enqueue one window for model ``name``; returns its future.

        Raises :class:`BatcherClosedError` / :class:`QueueFullError` /
        :class:`InvalidWindowError` synchronously; the future resolves with
        the prediction row or fails with :class:`DeadlineExceededError`.
        """
        if self._closing:
            raise BatcherClosedError("batcher is draining; not accepting work")
        entry = self.registry.get(name)
        arr = _validate_window(entry, window)
        now = time.monotonic()
        pending = _Pending(
            entry=entry, window=arr, key=self._batch_key(entry, arr),
            future=Future(), enqueued_at=now,
            deadline=None if timeout_s is None else now + timeout_s,
            trace=_obs_context.current() if _obs.active() else None)
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            raise QueueFullError(
                f"request queue at capacity ({self._queue.maxsize})") from None
        return pending.future

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def drain_rate(self) -> float:
        """Recent requests/second leaving the queue (0.0 when unknown)."""
        now = time.monotonic()
        with self._drain_lock:
            recent = [(t, n) for t, n in self._drained if now - t <= 5.0]
        if not recent:
            return 0.0
        total = sum(n for _, n in recent)
        return total / max(now - recent[0][0], 1e-3)

    def retry_after_s(self) -> float:
        """Adaptive 503 Retry-After: time to drain the current backlog.

        ``queue depth / recent drain rate`` estimates when a retried
        request would find room, clamped to [0.05s, 5s] so the hint never
        tells a client to hammer immediately or to give up for minutes.
        Falls back to 1s when there is no recent drain evidence (cold
        start under burst: the queue filled before anything executed).
        """
        depth = self._queue.qsize() + 1     # count the request being shed
        rate = self.drain_rate()
        if rate <= 0.0:
            return 1.0
        return min(max(depth / rate, 0.05), 5.0)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._worker is not None:
            return
        self._worker = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True)
        self._worker.start()

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admitting work; by default finish everything already queued.

        With ``drain=False`` queued requests fail with
        :class:`BatcherClosedError` instead of executing.
        """
        self._closing = True
        self._discard = not drain
        worker = self._worker
        if worker is not None:
            worker.join(timeout=timeout)

    def _run(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                if self._closing:
                    return
                continue
            batch = [first]
            flush_at = time.monotonic() + self.max_wait_s
            while len(batch) < self.max_batch_size:
                remaining = flush_at - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    batch.append(self._queue.get(timeout=remaining))
                except queue.Empty:
                    break
            self._execute(batch)

    def _execute(self, batch: List[_Pending]) -> None:
        now = time.monotonic()
        groups: dict = {}
        for pending in batch:
            if self._discard:
                pending.future.set_exception(
                    BatcherClosedError("batcher closed before execution"))
            elif pending.deadline is not None and now > pending.deadline:
                pending.future.set_exception(DeadlineExceededError(
                    f"deadline expired after "
                    f"{now - pending.enqueued_at:.3f}s in queue"))
            else:
                groups.setdefault(pending.key, []).append(pending)
        for group in groups.values():
            entry = group[0].entry
            try:
                stacked = np.stack([p.window for p in group])
                t0 = time.perf_counter()
                with precision(entry.dtype), no_grad():
                    out = entry.model(Tensor(stacked)).data
                self._emit_batch_span(group, time.perf_counter() - t0)
                self.metrics.observe_batch(len(group))
                # np.array() gives every waiter its own row, not a view of
                # the batch.
                for pending, row in zip(group, out):
                    pending.future.set_result(np.array(row))
            except Exception as exc:  # surface the failure to every waiter
                for pending in group:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
        with self._drain_lock:
            self._drained.append((time.monotonic(), len(batch)))

    @staticmethod
    def _emit_batch_span(group: List[_Pending], dur_s: float) -> None:
        """Record the stacked forward, linking every member request's trace.

        The worker thread has no span context of its own; the span's
        ``member_traces``/``member_spans`` attrs carry the http.request
        refs captured at submit() so ``repro trace`` can join a batched
        forward back to the requests it served.
        """
        ob = _obs.active()
        if ob is None:
            return
        entry = group[0].entry
        members = [p.trace for p in group if p.trace is not None]
        ob.emit_span("batch.execute", dur_s, {
            "model": entry.name, "version": entry.version,
            "policy": entry.policy, "size": len(group),
            "member_traces": [ref.trace_id for ref in members],
            "member_spans": [ref.span_id for ref in members],
        }, parent=members[0] if members else None)
