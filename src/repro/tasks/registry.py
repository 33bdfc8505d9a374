"""First-class task registry: one ``TaskSpec`` per task, threaded everywhere.

The paper positions TS3Net as *task-general* — forecasting, imputation,
classification, and anomaly detection over the same triple decomposition.
This module makes that claim structural: every task declares, in a single
frozen :class:`TaskSpec`,

* **data** — how its windows/loaders are built from a dataset
  (``make_config`` + ``loaders``, plus ``load_data`` for tasks that do not
  consume a :class:`~repro.data.dataset.SplitData` split);
* **training** — the ``step_fn`` the shared :class:`~repro.tasks.trainer.
  Trainer` consumes;
* **evaluation** — the metric bundle reported on the test split
  (``evaluate`` + ``metric_names``);
* **checkpoints** — the metadata contract a ``repro train --save``
  checkpoint must carry (``required_metadata``/``checkpoint_extra``) and
  how to ``rebuild`` the architecture from it (used by ``repro serve``,
  the per-task inference subcommands, and the serving ModelRegistry);
* **serving** — the request/response schema of its ``POST /v1/<task>``
  endpoint and the micro-batching *determinism policy* its models run
  under (:class:`ServingContract`), preserving the bit-identical
  batched-vs-single-forward guarantee for every task;
* **CLI** — the name of its offline inference subcommand and the flags it
  adds, so ``repro --help`` is derived from the registry instead of
  hardcoded lists.

Every consumer (``data`` → ``trainer`` → ``experiments`` grid →
``nn.serialization`` → ``serving`` → ``cli``) dispatches through
:func:`get_task`, so adding a model family or a task is one registry
entry.  ``scripts/lint_ops.py`` enforces completeness: a spec missing a
loader factory, step function, metrics, or serving batch policy fails the
lint (run in tests and CI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .trainer import FitResult, TrainConfig, Trainer

#: Architectures verified to be pure per-sample maps (stacked forwards are
#: bit-identical to per-window forwards for any grouping by shape/dtype).
STACK_SAFE_CLASSES = frozenset({
    "DLinear", "LightTS", "PatchTST", "FEDformer", "Informer",
    "TSDCNN", "TSDTrans",
})


def resolve_batch_policy(model) -> str:
    """Classify how the micro-batcher may group windows for ``model``.

    * ``"stack"``     — the forward pass is a pure per-sample map; any
      windows of the same shape/dtype may share a stacked forward;
    * ``"signature"`` — the model couples samples through data-dependent
      selection but exposes ``batch_signature(window)``; only windows with
      equal signatures may be stacked;
    * ``"solo"``      — cross-sample coupling with no groupable signature;
      every window runs in its own forward.  Unknown architectures default
      here, so serving a new model can never silently break the
      determinism guarantee.
    """
    signature = getattr(model, "batch_signature", None)
    if callable(signature):
        return "signature"
    if type(model).__name__ in STACK_SAFE_CLASSES:
        return "stack"
    return "solo"


class UnknownTaskError(KeyError):
    """Requested task name is not registered; the message names known tasks."""

    def __init__(self, name: str, known: Tuple[str, ...]):
        super().__init__(name)
        self.task = name
        self.known = known

    def __str__(self) -> str:
        return (f"unknown task {self.task!r}; known tasks: "
                f"{', '.join(self.known)}")


@dataclass(frozen=True)
class ServingContract:
    """How a task is exposed over HTTP and batched deterministically.

    ``batch_policy(model)`` classifies how the MicroBatcher may group this
    task's windows (``"stack"`` / ``"signature"`` / ``"solo"`` — see
    ``repro.serving.registry``); the batched model outputs are always
    bit-identical to ``single_forward``, and ``postprocess`` is a pure
    per-row function applied after the batch resolves, so the end-to-end
    response inherits the determinism guarantee.
    """

    singular: str                 # JSON key for a single-window response
    plural: str                   # JSON key for the "windows" batch response
    description: str              # one-liner for endpoint listings
    batch_policy: Callable[[Any], str]
    # (entry, row, window, payload) -> JSON-safe value for one window
    postprocess: Callable[[Any, Any, Any, Dict], Any]
    # (entry) -> extra top-level response fields (e.g. {"pred_len": ...})
    body_extra: Callable[[Any], Dict[str, Any]]


@dataclass(frozen=True)
class TaskSpec:
    """Everything one task declares; see the module docstring for the map."""

    name: str
    summary: str
    # -- data ----------------------------------------------------------
    setting_name: str             # the task's knob ("pred_len", ...)
    setting_arg: str              # CLI attribute carrying the knob
    default_setting: Any
    needs_split: bool             # True: trains on a SplitData split
    # (seq_len, setting, *, batch_size, max_train_batches,
    #  max_eval_batches, seed) -> task config dataclass
    make_config: Callable[..., Any]
    # (dataset, n_steps, seed, config) -> data; only for needs_split=False
    load_data: Optional[Callable[..., Any]]
    channels: Callable[[Any], int]          # data -> c_in
    loaders: Callable[[Any, Any], tuple]    # (data, config) -> (train, val, test)
    # -- training ------------------------------------------------------
    step: Callable[[Any, Any], Callable]    # (model, config) -> StepFn
    # (trainer, test_loader, model, config, data) -> {metric: value}
    evaluate: Callable[..., Dict[str, float]]
    metric_names: Tuple[str, ...]
    # -- model construction / checkpoints ------------------------------
    model_task: str               # task string handed to baselines.build_model
    # (model_name, config, c_in, preset, **overrides) -> Module
    build: Callable[..., Any]
    # (meta) -> Module with matching architecture (weights not loaded)
    rebuild: Callable[[Dict[str, Any]], Any]
    out_len: Callable[[Any], int]           # config -> checkpoint pred_len
    # (model, config) -> task-specific checkpoint metadata
    checkpoint_extra: Callable[[Any, Any], Dict[str, Any]]
    required_metadata: Tuple[str, ...] = ()
    # -- serving -------------------------------------------------------
    serving: ServingContract = None  # completeness enforced by lint_ops
    # -- CLI -----------------------------------------------------------
    infer_command: str = ""
    infer_help: str = ""
    add_infer_args: Callable[[Any], None] = None
    # (args, meta, model) -> report text (the CLI prints it)
    run_infer: Callable[..., str] = None
    format_result: Callable[[FitResult], str] = None


_REGISTRY: Dict[str, TaskSpec] = {}
_LOADED = False


def register_task(spec: TaskSpec) -> TaskSpec:
    """Register ``spec`` under its name (idempotent for identical names)."""
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_loaded() -> None:
    """Import the task modules so their module-level specs register."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    from . import anomaly, classification, forecasting, imputation  # noqa: F401


def get_task(name: str) -> TaskSpec:
    """Look up a task by name; raises :class:`UnknownTaskError` otherwise."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownTaskError(name, task_names()) from None


def task_names() -> Tuple[str, ...]:
    """Registered task names in registration order."""
    _ensure_loaded()
    return tuple(_REGISTRY)


def task_specs() -> Tuple[TaskSpec, ...]:
    """Every registered spec (registration order)."""
    _ensure_loaded()
    return tuple(_REGISTRY.values())


# ---------------------------------------------------------------------------
# The generic driver every task runs through
# ---------------------------------------------------------------------------

def run_task(task, model, data, config,
             train_cfg: Optional[TrainConfig] = None) -> FitResult:
    """Train ``model`` on ``data`` under the task's contract.

    ``task`` is a name or a :class:`TaskSpec`.  Builds the spec's loaders,
    fits through the shared :class:`Trainer` (spans and ``--profile``
    included), then runs the spec's evaluation.  The result's ``metrics``
    dict holds the task's metric bundle; ``mse``/``mae`` are filled when
    the task reports them, so existing grid/table consumers keep working.
    """
    spec = task if isinstance(task, TaskSpec) else get_task(task)
    train_loader, val_loader, test_loader = spec.loaders(data, config)
    trainer = Trainer(model, train_cfg)
    result = trainer.fit(train_loader, val_loader, spec.step(model, config),
                         task=spec.name)
    metrics = spec.evaluate(trainer, test_loader, model, config, data)
    result.metrics = dict(metrics)
    result.mse = metrics.get("mse", float("nan"))
    result.mae = metrics.get("mae", float("nan"))
    result.eval_seconds += trainer.last_eval_seconds
    return result


# ---------------------------------------------------------------------------
# Checkpoint metadata helpers shared by serving and the CLI
# ---------------------------------------------------------------------------

def checkpoint_overrides(meta: Dict[str, Any],
                         source: str = "checkpoint") -> Dict[str, Any]:
    """The validated model-kwarg overrides carried by checkpoint metadata."""
    overrides = meta.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise ValueError(
            f"{source} metadata 'overrides' must be a dict of model "
            f"kwargs, got {type(overrides).__name__}")
    return overrides


def rebuild_from_metadata(meta: Dict[str, Any]):
    """Reconstruct the architecture a checkpoint describes (no weights).

    Dispatches on ``meta["task"]`` through the registry — the one door
    every checkpoint consumer (``repro serve``, the per-task inference
    subcommands, the serving ModelRegistry) rebuilds models through.
    """
    return get_task(meta["task"]).rebuild(meta)
