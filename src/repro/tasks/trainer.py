"""Training loop shared by every model and task.

Implements the paper's protocol (Table III + Sec. IV-C): Adam with MSE
loss, per-epoch exponential LR decay, and early stopping with patience 3
that restores the best validation weights.

The trainer is task-agnostic: forecasting and imputation supply a
``step_fn(batch) -> (loss_tensor, pred, target, mask_or_None)`` and the
trainer handles batching, optimisation, validation, and metric collection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..autodiff import GraphProfiler, Tensor, no_grad, precision, resolve_dtype
from ..nn.module import Module
from ..obs import console as _console
from ..obs import events as _obs_events
from ..obs import runtime as _obs
from ..optim import Adam, EarlyStopping, ExponentialDecay, clip_grad_norm

StepFn = Callable[[object], Tuple[Tensor, np.ndarray, np.ndarray, Optional[np.ndarray]]]


@dataclass
class TrainConfig:
    """Optimisation hyper-parameters (paper defaults from Table III)."""

    epochs: int = 10
    lr: float = 1e-4
    patience: int = 3
    lr_decay: float = 0.5
    clip_norm: Optional[float] = None
    verbose: bool = False
    precision: str = "float64"
    profile: bool = False


@dataclass
class FitResult:
    """Training history plus final test metrics.

    Besides the total wall-clock (``seconds``), the trainer records a
    per-epoch breakdown (``epoch_seconds``) and the train-vs-evaluation
    split (``train_seconds`` covers optimiser epochs; ``eval_seconds``
    covers validation passes plus the final test evaluation) so grid-level
    benchmarks can attribute regressions to the right phase.
    """

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    mse: float = float("nan")
    mae: float = float("nan")
    # Full task-specific metric bundle (e.g. accuracy/f1 for
    # classification, threshold/detection_rate for anomaly); mse/mae above
    # stay filled when the task reports them, for legacy consumers.
    metrics: Dict[str, float] = field(default_factory=dict)
    epochs_run: int = 0
    seconds: float = 0.0
    epoch_seconds: List[float] = field(default_factory=list)
    train_seconds: float = 0.0
    eval_seconds: float = 0.0
    # GraphProfiler.summary() dict when TrainConfig.profile was set:
    # per-op calls/wall-clock/saved-activation bytes, per-module timings,
    # and the peak retained-activation watermark.
    profile: Optional[dict] = None

    def as_row(self) -> Dict[str, float]:
        return {"mse": self.mse, "mae": self.mae}


class Trainer:
    """Fit a model with Adam + early stopping; evaluate with MSE/MAE."""

    def __init__(self, model: Module, config: Optional[TrainConfig] = None):
        self.model = model
        self.config = config or TrainConfig()
        # Cast the model before the optimiser snapshots parameter shapes so
        # Adam's moment buffers share the training precision.
        self._dtype = resolve_dtype(self.config.precision)
        if self._dtype != np.float64:
            model.to(self._dtype)
        self.optimizer = Adam(model.parameters(), lr=self.config.lr)
        self.scheduler = ExponentialDecay(self.optimizer, gamma=self.config.lr_decay)
        self.last_eval_seconds = 0.0

    # ------------------------------------------------------------------
    def _run_epoch(self, loader, step_fn: StepFn, train: bool) -> float:
        with precision(self._dtype):
            return self._run_epoch_inner(loader, step_fn, train)

    def _run_epoch_inner(self, loader, step_fn: StepFn, train: bool) -> float:
        self.model.train(train)
        # Running sum instead of a per-batch list: one float per step, no
        # array allocation at epoch end.
        loss_sum = 0.0
        batches = 0
        for batch in loader:
            if train:
                self.model.zero_grad()
                loss, *_ = step_fn(batch)
                loss.backward()
                loss_val = float(loss.data)
                if self.config.clip_norm:
                    clip_grad_norm(self.model.parameters(), self.config.clip_norm)
                self.optimizer.step()
            else:
                with no_grad():
                    loss, *_ = step_fn(batch)
                loss_val = float(loss.data)
            loss_sum += loss_val
            batches += 1
        return loss_sum / batches if batches else float("nan")

    def fit(self, train_loader, val_loader, step_fn: StepFn,
            task: Optional[str] = None) -> FitResult:
        """Train until the epoch budget or early stopping trips.

        ``task`` (the registry name, when fitting through
        ``repro.tasks.registry.run_task``) is recorded on the fit span.

        When an observer is configured (``repro.obs.configure``), the fit
        runs under a ``trainer.fit`` span with one retroactive
        ``trainer.epoch`` child span per epoch; with observability off,
        the only extra work is the ``obs.active()`` load below (gated by
        the ``trainer_obs_disabled_overhead`` benchmark fact).
        """
        ob = _obs.active()
        if ob is None:
            return self._fit(None, train_loader, val_loader, step_fn)
        with ob.span("trainer.fit", {
                "model": type(self.model).__name__,
                "task": task or "",
                "epochs": self.config.epochs,
                "precision": self.config.precision}) as span:
            result = self._fit(ob, train_loader, val_loader, step_fn)
            span.set(epochs_run=result.epochs_run,
                     train_seconds=result.train_seconds,
                     eval_seconds=result.eval_seconds)
            if result.profile is not None:
                span.set(profile=result.profile)
        return result

    def _fit(self, ob, train_loader, val_loader, step_fn: StepFn) -> FitResult:
        result = FitResult()
        stopper = EarlyStopping(patience=self.config.patience)
        profiler = None
        if self.config.profile:
            profiler = GraphProfiler().attach(self.model).start()
        start = time.time()
        try:
            self._fit_loop(ob, result, stopper, train_loader, val_loader,
                           step_fn)
        finally:
            if profiler is not None:
                profiler.stop().detach()
                result.profile = profiler.summary()
        stopper.restore_best(self.model)
        result.seconds = time.time() - start
        if ob is not None and result.profile is not None:
            # The --profile summary is a first-class run event, rendered
            # as a per-op table by repro.obs.report.
            ob.event("trainer.profile", {
                "model": type(self.model).__name__,
                **result.profile})
        return result

    def _fit_loop(self, ob, result: FitResult, stopper, train_loader,
                  val_loader, step_fn: StepFn) -> None:
        for epoch in range(self.config.epochs):
            t0 = time.perf_counter()
            train_loss = self._run_epoch(train_loader, step_fn, train=True)
            t1 = time.perf_counter()
            val_loss = self._run_epoch(val_loader, step_fn, train=False)
            t2 = time.perf_counter()
            result.train_seconds += t1 - t0
            result.eval_seconds += t2 - t1
            result.epoch_seconds.append(t2 - t0)
            result.train_losses.append(train_loss)
            result.val_losses.append(val_loss)
            result.epochs_run = epoch + 1
            if ob is not None or self.config.verbose:
                self._emit_epoch(ob, epoch + 1, train_loss, val_loss,
                                 t1 - t0, t2 - t1)
            stopper.update(val_loss, self.model)
            if stopper.should_stop:
                break
            self.scheduler.step()

    def _emit_epoch(self, ob, epoch: int, train_loss: float, val_loss: float,
                    train_s: float, eval_s: float) -> None:
        """Route the per-epoch record to the event sink and/or the console."""
        attrs = {"epoch": epoch, "train_loss": train_loss,
                 "val_loss": val_loss, "train_seconds": train_s,
                 "eval_seconds": eval_s}
        rec = None
        if ob is not None:
            rec = ob.emit_span("trainer.epoch", train_s + eval_s, attrs)
            ob.registry.counter("repro_train_epochs_total",
                                "Completed training epochs.").inc()
        if self.config.verbose:
            _console.emit_record(rec if rec is not None else _obs_events.record(
                "span_end", "trainer.epoch", attrs, dur_s=train_s + eval_s))

    def evaluate(self, loader, step_fn: StepFn) -> Tuple[float, float]:
        """Aggregate MSE/MAE over a loader (mask-aware via the step_fn).

        Wall-clock for the pass is recorded on ``self.last_eval_seconds``
        so task drivers can fold it into ``FitResult.eval_seconds``.
        """
        start = time.perf_counter()
        self.model.eval()
        sq_sum = abs_sum = 0.0
        count = 0
        for batch in loader:
            with no_grad(), precision(self._dtype):
                _, pred, target, mask = step_fn(batch)
            if mask is not None:
                sel = np.asarray(mask, dtype=bool)
                diff = (pred - target)[sel]
            else:
                diff = np.ravel(pred - target)
            # np.dot on the flat residual beats (diff ** 2).sum(): no
            # squared temporary, single BLAS reduction.
            sq_sum += float(np.dot(diff, diff))
            abs_sum += float(np.abs(diff).sum())
            count += diff.size
        self.last_eval_seconds = time.perf_counter() - start
        if count == 0:
            return float("nan"), float("nan")
        return sq_sum / count, abs_sum / count
