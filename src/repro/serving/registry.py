"""Checkpoint registry for serving: load, validate, atomically hot-reload.

A :class:`ModelRegistry` maps serving names to immutable
:class:`ModelEntry` snapshots.  Each entry bundles the rebuilt model, its
validated checkpoint metadata, and the *batch policy* the micro-batcher
must respect:

* ``"stack"``     — the forward pass is a pure per-sample map; any windows
  of the same shape/dtype may share a stacked forward;
* ``"signature"`` — the model couples samples through data-dependent
  selection (TS3Net's Eq. 2 period detection averages spectra over the
  batch) but exposes ``batch_signature(window)``; only windows with equal
  signatures may be stacked;
* ``"solo"``      — cross-sample coupling with no groupable signature
  (TimesNet's amplitude weights, Autoformer's batch-mean autocorrelation);
  every window runs in its own forward.  Unknown architectures default
  here, so serving a new model can never silently break the determinism
  guarantee.

Hot reload builds the replacement entry *outside* the registry lock and
swaps the mapping in one assignment, so concurrent requests always see
either the complete old entry or the complete new one — never a
half-loaded model.  In-flight batches keep a reference to the entry they
were admitted under; the batcher keys groups on ``(name, version)`` so a
reload boundary can never mix weights inside one stacked forward.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..nn import load_checkpoint, peek_metadata, validate_checkpoint_metadata
# The policy classifier lives with the TaskSpec registry now (every task
# declares its serving batch policy there); re-exported for compatibility.
from ..tasks.registry import (  # noqa: F401
    STACK_SAFE_CLASSES, get_task, resolve_batch_policy,
)


class UnknownModelError(KeyError):
    """Requested serving name is not registered."""


@dataclass(frozen=True)
class ModelEntry:
    """One immutable registered model snapshot."""

    name: str
    path: str
    model: Any
    meta: Dict[str, Any]
    policy: str
    dtype: np.dtype
    version: int
    loaded_at: float = field(default_factory=time.time)

    @property
    def task(self) -> str:
        return self.meta["task"]

    @property
    def seq_len(self) -> int:
        return self.meta["seq_len"]

    @property
    def pred_len(self) -> int:
        return self.meta["pred_len"]

    @property
    def c_in(self) -> int:
        return self.meta["c_in"]

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for ``GET /v1/models``."""
        return {
            "name": self.name,
            "model": self.meta["model"],
            "task": self.task,
            "seq_len": self.seq_len,
            "pred_len": self.pred_len,
            "c_in": self.c_in,
            "dtype": str(self.dtype),
            "batch_policy": self.policy,
            "version": self.version,
            "loaded_at": self.loaded_at,
            "checkpoint": self.path,
            "parameters": int(self.model.num_parameters()),
        }


class ModelRegistry:
    """Named, hot-reloadable model store shared by the server threads."""

    def __init__(self, expect_task: Optional[str] = None):
        self._lock = threading.Lock()
        self._entries: Dict[str, ModelEntry] = {}
        self._next_version = 1
        self._expect_task = expect_task

    # ------------------------------------------------------------------
    def _make_entry(self, name: str, path: str, meta: Dict[str, Any],
                    load_weights, version: int) -> ModelEntry:
        # Validation checks the checkpoint's task against the registry and
        # names the known tasks when it is unrecognised; the model is then
        # rebuilt through that task's spec (one door for every consumer).
        meta = validate_checkpoint_metadata(
            meta, expect_task=self._expect_task, source=path)
        spec = get_task(meta["task"])
        model = spec.rebuild(meta)
        load_weights(model)
        model.eval()
        params = model.parameters()
        dtype = params[0].data.dtype if params else np.dtype(np.float64)
        return ModelEntry(name=name, path=path, model=model, meta=meta,
                          policy=spec.serving.batch_policy(model),
                          dtype=np.dtype(dtype), version=version)

    def _build_entry(self, name: str, path: str, version: int) -> ModelEntry:
        return self._make_entry(
            name, path, peek_metadata(path),
            lambda model: load_checkpoint(model, path), version)

    def _claim_version(self, version: Optional[int]) -> int:
        """Reserve the next version (or record an externally assigned one).

        Cluster workers pass the spool-published version explicitly so the
        batch key ``(name, version)`` means the same weights on every
        worker; the counter stays monotonic past explicit versions so
        mixed use can never reissue a version.
        """
        with self._lock:
            if version is None:
                version = self._next_version
            self._next_version = max(self._next_version, version + 1)
        return version

    def load(self, name: str, path: str) -> ModelEntry:
        """Register ``path`` under ``name``; rejects duplicate names."""
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model name {name!r} already registered; "
                                 "use reload() to replace it")
        version = self._claim_version(None)
        entry = self._build_entry(name, path, version)
        with self._lock:
            self._entries[name] = entry
        return entry

    def reload(self, name: str, path: Optional[str] = None) -> ModelEntry:
        """Atomically replace ``name`` with a freshly loaded checkpoint.

        The new entry is fully built and validated before the swap; on any
        load/validation error the registry keeps serving the old entry.
        """
        old = self.get(name)
        version = self._claim_version(None)
        entry = self._build_entry(name, path or old.path, version)
        with self._lock:
            self._entries[name] = entry
        return entry

    # ------------------------------------------------------------------
    def load_attached(self, name: str, shared,
                      version: Optional[int] = None) -> ModelEntry:
        """Register a model whose weights live in a shared mapping.

        ``shared`` is a :class:`~repro.serving.cluster.shm.SharedWeights`:
        the rebuilt model's parameters become zero-copy views into the
        published copy-on-write blob, so N workers attaching the same
        version share one physical copy of the weights.  ``version``
        should be the spool's published version so batch keys agree
        across the worker pool.
        """
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model name {name!r} already registered; "
                                 "use reload_attached() to replace it")
        version = self._claim_version(
            version if version is not None else shared.version)
        entry = self._make_entry(name, f"shm://{shared.path}", shared.meta,
                                 shared.load_into, version)
        with self._lock:
            self._entries[name] = entry
        return entry

    def reload_attached(self, name: str, shared,
                        version: Optional[int] = None) -> ModelEntry:
        """Atomically swap ``name`` onto a freshly published shared version.

        Same hot-reload contract as :meth:`reload`: the entry is built
        outside the lock and swapped in one assignment, and the batcher's
        ``(name, version)`` keys guarantee no stacked forward ever mixes
        the old and new weights.
        """
        self.get(name)                     # raises UnknownModelError
        version = self._claim_version(
            version if version is not None else shared.version)
        entry = self._make_entry(name, f"shm://{shared.path}", shared.meta,
                                 shared.load_into, version)
        with self._lock:
            self._entries[name] = entry
        return entry

    # ------------------------------------------------------------------
    def get(self, name: str) -> ModelEntry:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise UnknownModelError(name) from None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def describe(self) -> List[Dict[str, Any]]:
        with self._lock:
            entries = list(self._entries.values())
        return [e.describe() for e in sorted(entries, key=lambda e: e.name)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def default_name(self, task: Optional[str] = None) -> Optional[str]:
        """The single registered name, or None when ambiguous/empty.

        With ``task``, considers only entries trained for that task — the
        per-task endpoints default to "the one model serving this task".
        """
        with self._lock:
            names = [name for name, entry in self._entries.items()
                     if task is None or entry.task == task]
        return names[0] if len(names) == 1 else None
