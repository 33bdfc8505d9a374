"""Time-series classification (extension — the paper's "task-general" claim).

The paper's introduction lists classification among TS3Net's downstream
tasks but only evaluates forecasting and imputation. This module supplies
the missing piece on the same substrate:

* a seeded synthetic labeled dataset (UEA-style): each class is a distinct
  mixture of periodicities/waveforms, so classifying requires exactly the
  spectral structure TS3Net encodes;
* :class:`SeriesClassifier` — any backbone exposing ``encode(x)`` (TS3Net
  does) + mean pooling + a linear softmax head;
* a cross-entropy trainer step and accuracy/macro-F1 evaluation, all run
  through the shared :class:`~repro.tasks.trainer.Trainer` and declared as
  the ``classification`` :class:`~repro.tasks.registry.TaskSpec`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..autodiff import Tensor, cross_entropy_loss, no_grad
from ..data.dataset import DataLoader, LabeledWindows
from ..nn import Linear, Module
from .metrics import accuracy as accuracy_metric
from .metrics import f1_score
from .registry import (
    ServingContract, TaskSpec, checkpoint_overrides, register_task,
    resolve_batch_policy, run_task,
)
from .trainer import FitResult, TrainConfig, Trainer


def make_classification_dataset(num_classes: int = 3, samples_per_class: int = 40,
                                seq_len: int = 64, channels: int = 2,
                                noise: float = 0.3, seed: int = 0
                                ) -> Tuple[np.ndarray, np.ndarray]:
    """Labeled multivariate series: class k mixes periods (8+4k, 16+4k).

    Returns ``(x, y)`` with x of shape (N, T, C) and integer labels y;
    samples are shuffled.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(seq_len)
    xs, ys = [], []
    for label in range(num_classes):
        p1, p2 = 8 + 4 * label, 16 + 4 * label
        for _ in range(samples_per_class):
            phase = rng.uniform(0, 2 * np.pi)
            base = (np.sin(2 * np.pi * t / p1 + phase)
                    + 0.5 * np.sin(2 * np.pi * t / p2 + 1.3 * phase))
            sample = np.stack([
                base * rng.uniform(0.8, 1.2) + noise * rng.standard_normal(seq_len)
                for _ in range(channels)
            ], axis=1)
            xs.append(sample)
            ys.append(label)
    x = np.stack(xs)
    y = np.asarray(ys)
    order = rng.permutation(len(y))
    return x[order], y[order]


class SeriesClassifier(Module):
    """Backbone ``encode`` -> temporal mean pool -> linear logits."""

    def __init__(self, backbone: Module, d_model: int, num_classes: int):
        super().__init__()
        if not hasattr(backbone, "encode"):
            raise TypeError("backbone must expose an encode(x) method")
        self.backbone = backbone
        self.num_classes = num_classes
        self.d_model = d_model
        self.head = Linear(d_model, num_classes)

    def forward(self, x: Tensor) -> Tensor:
        features = self.backbone.encode(x)        # (B, T, D)
        pooled = features.mean(axis=1)            # (B, D)
        return self.head(pooled)                  # (B, K)

    def predict(self, x: np.ndarray) -> np.ndarray:
        self.eval()
        with no_grad():
            logits = self(Tensor(np.asarray(x, dtype=float)))
        return logits.data.argmax(axis=-1)


def classification_step(model: SeriesClassifier):
    """Step function for labeled batches ``(x, y)`` with cross entropy."""

    def step(batch):
        x, y = batch
        logits = model(Tensor(x))
        loss = cross_entropy_loss(logits, y)
        return loss, logits.data, y, None

    return step


@dataclass
class ClassificationResult:
    accuracy: float
    train_losses: list


@dataclass
class ClassificationTask:
    """One classification configuration: synthetic dataset + split shape."""

    seq_len: int = 64
    num_classes: int = 3
    samples_per_class: int = 40
    channels: int = 2
    noise: float = 0.3
    batch_size: int = 16
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    max_train_batches: Optional[int] = None
    max_eval_batches: Optional[int] = None
    seed: int = 0

    def split(self, data):
        """(x, y) -> three (x, y) slices: train / val / test.

        With ``val_fraction == 0`` the validation slice aliases the test
        slice (the legacy :func:`run_classification` protocol: no held-out
        validation set, accuracy on everything past the train fraction).
        """
        x, y = data
        n_train = int(len(x) * self.train_fraction)
        n_val = int(len(x) * self.val_fraction)
        test = (x[n_train + n_val:], y[n_train + n_val:])
        val = (x[n_train:n_train + n_val], y[n_train:n_train + n_val])
        if n_val == 0:
            val = test
        return (x[:n_train], y[:n_train]), val, test

    def loaders(self, data):
        train, val, test = self.split(data)
        train_loader = DataLoader(
            LabeledWindows(*train), batch_size=self.batch_size, shuffle=True,
            seed=self.seed, max_batches=self.max_train_batches)
        val_loader = DataLoader(
            LabeledWindows(*val), batch_size=self.batch_size,
            max_batches=self.max_eval_batches)
        test_loader = DataLoader(
            LabeledWindows(*test), batch_size=self.batch_size,
            max_batches=self.max_eval_batches)
        return train_loader, val_loader, test_loader


def run_classification(model: SeriesClassifier, x: np.ndarray, y: np.ndarray,
                       epochs: int = 5, batch_size: int = 16, lr: float = 1e-3,
                       train_fraction: float = 0.7,
                       seed: int = 0) -> ClassificationResult:
    """Train on the first ``train_fraction`` of samples, report test accuracy.

    Thin wrapper over the shared Trainer (spans/--profile included).
    Validation reuses the test slice, patience is pinned to the epoch
    budget, and the LR is held constant so the historical fixed-seed
    behaviour of this helper (train on every epoch, evaluate once at the
    end) is preserved.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    config = ClassificationTask(
        seq_len=x.shape[1], num_classes=int(y.max()) + 1,
        channels=x.shape[2], batch_size=batch_size,
        train_fraction=train_fraction, val_fraction=0.0, seed=seed)
    train_cfg = TrainConfig(epochs=epochs, lr=lr, patience=epochs,
                            lr_decay=1.0)
    result = run_task(CLASSIFICATION_SPEC, model, (x, y), config, train_cfg)
    return ClassificationResult(accuracy=result.metrics["accuracy"],
                                train_losses=result.train_losses)


# ---------------------------------------------------------------------------
# TaskSpec wiring
# ---------------------------------------------------------------------------

def _make_config(seq_len, setting, *, batch_size=16, max_train_batches=None,
                 max_eval_batches=None, seed=0) -> ClassificationTask:
    return ClassificationTask(seq_len=seq_len, num_classes=int(setting),
                              batch_size=batch_size,
                              max_train_batches=max_train_batches,
                              max_eval_batches=max_eval_batches, seed=seed)


def _load_data(dataset, n_steps, seed, config):
    # The dataset name is accepted for CLI symmetry but the labeled set is
    # synthetic (UEA-style); n_steps is unused for the same reason.
    return make_classification_dataset(
        num_classes=config.num_classes,
        samples_per_class=config.samples_per_class, seq_len=config.seq_len,
        channels=config.channels, noise=config.noise, seed=seed)


def _evaluate(trainer: Trainer, test_loader, model, config, data):
    start = time.perf_counter()
    preds, targets = [], []
    for batch in test_loader:
        x, y = batch
        preds.append(model.predict(x))
        targets.append(np.asarray(y))
    pred = np.concatenate(preds) if preds else np.empty(0, dtype=int)
    target = np.concatenate(targets) if targets else np.empty(0, dtype=int)
    trainer.last_eval_seconds = time.perf_counter() - start
    return {"accuracy": accuracy_metric(pred, target),
            "f1": f1_score(pred, target)}


def _build(model_name, config, c_in, preset="tiny", **overrides):
    from ..baselines.registry import build_model
    backbone = build_model(model_name, seq_len=config.seq_len,
                           pred_len=config.seq_len, c_in=c_in,
                           task="classification", preset=preset, **overrides)
    return SeriesClassifier(backbone, d_model=backbone.config.d_model,
                            num_classes=config.num_classes)


def _rebuild(meta):
    from ..baselines.registry import build_model
    backbone = build_model(meta["model"], seq_len=meta["seq_len"],
                           pred_len=meta["pred_len"], c_in=meta["c_in"],
                           task="classification",
                           preset=meta.get("preset", "tiny"),
                           **checkpoint_overrides(meta))
    return SeriesClassifier(backbone, d_model=meta["d_model"],
                            num_classes=meta["num_classes"])


def _postprocess(entry, row, window, payload):
    """Logits -> label + per-class logits for one window (pure per-row)."""
    return {"label": int(np.argmax(row)), "logits": row.tolist()}


def _add_infer_args(parser) -> None:
    parser.add_argument("--n-samples", type=int, default=30,
                        help="synthetic samples to classify")


def _run_infer(args, meta, model) -> str:
    """Classify a fresh synthetic batch drawn with the checkpoint's recipe."""
    per_class = max(1, args.n_samples // meta["num_classes"])
    x, y = make_classification_dataset(
        num_classes=meta["num_classes"], samples_per_class=per_class,
        seq_len=meta["seq_len"], channels=meta["c_in"], seed=args.seed)
    pred = model.predict(x)
    acc = accuracy_metric(pred, y)
    f1 = f1_score(pred, y)
    return (f"{meta['model']} classification: {len(y)} samples, "
            f"accuracy={acc:.4f} macro-F1={f1:.4f}")


def _format_result(result: FitResult) -> str:
    return (f"test accuracy={result.metrics['accuracy']:.4f} "
            f"macro-F1={result.metrics['f1']:.4f}")


CLASSIFICATION_SPEC = register_task(TaskSpec(
    name="classification",
    summary="label a window by its periodicity mixture (synthetic UEA-style)",
    setting_name="num_classes",
    setting_arg="num_classes",
    default_setting=3,
    needs_split=False,
    make_config=_make_config,
    load_data=_load_data,
    channels=lambda data: data[0].shape[2],
    loaders=lambda data, config: config.loaders(data),
    step=lambda model, config: classification_step(model),
    evaluate=_evaluate,
    metric_names=("accuracy", "f1"),
    model_task="classification",
    build=_build,
    rebuild=_rebuild,
    out_len=lambda config: config.seq_len,
    checkpoint_extra=lambda model, config: {
        "num_classes": model.num_classes, "d_model": model.d_model},
    required_metadata=("num_classes", "d_model"),
    serving=ServingContract(
        singular="classification",
        plural="classifications",
        description="window (seq_len x c_in) -> {label, logits}",
        batch_policy=resolve_batch_policy,
        postprocess=_postprocess,
        body_extra=lambda entry: {"seq_len": entry.seq_len},
    ),
    infer_command="classify",
    infer_help="classify synthetic series from a checkpoint",
    add_infer_args=_add_infer_args,
    run_infer=_run_infer,
    format_result=_format_result,
))
