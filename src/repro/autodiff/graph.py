"""Op registry, graph IR, and hook-based telemetry for the autodiff tape.

This module is the single door into the tape.  Every differentiable
operation is a *registered op*: a name plus a ``forward``/``backward`` pair
(and a ``sample`` used by the registry-driven gradient-check sweep in
``tests/test_op_registry.py``).  Applying an op records an :class:`OpNode`
— ``(op name, parents, saved tensors)`` — on the output tensor, and
``Tensor.backward()`` walks that explicit graph instead of anonymous
closures.

Node lifecycle
--------------
1. **Record** — ``apply()`` (in :mod:`repro.autodiff.tensor`) runs the
   registered forward, which stashes whatever its backward needs via
   ``ctx.save(...)``; the saved tuple and its retained byte count live on
   the node.
2. **Backward** — the registered backward receives the node and a ``sink``
   callback; it pushes one gradient per parent index.
3. **Free** — unless ``backward(retain_graph=True)`` was requested, the
   node's saved activations are dropped *as soon as its backward has run*,
   and the node is marked ``freed`` so a second backward through it raises
   instead of silently producing wrong gradients.

Hooks
-----
``add_op_forward_hook`` / ``add_op_backward_hook`` register callbacks fired
per op application / per node backward.  They receive
``(op_name, seconds, nbytes)`` where ``nbytes`` is the node's retained
saved-activation bytes (created bytes on forward, freed bytes on backward).
When no hooks are installed the tape skips all timing — the hot path pays
only two truthiness checks.

:class:`GraphProfiler` is the standard consumer: it aggregates per-op-type
call counts, wall-clock, and saved bytes, tracks the live/peak retained
byte watermark across its session, and can additionally ``attach()`` to a
:class:`repro.nn.Module` tree to collect per-module forward timings through
``named_modules()`` forward hooks.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "OpNode", "OpContext", "register_op", "get_op", "registered_ops",
    "add_op_forward_hook", "add_op_backward_hook", "HookHandle",
    "GraphProfiler", "format_profile",
]


class OpContext:
    """Scratch space a registered forward uses to stash backward state."""

    __slots__ = ("saved",)

    def __init__(self):
        self.saved: tuple = ()

    def save(self, *values) -> None:
        """Record the values the op's backward will need."""
        self.saved = values


def _retained_nbytes(saved: tuple) -> int:
    """Bytes of array buffers a saved tuple keeps alive.

    Views (slices, ``as_strided`` windows) are charged at the size of their
    *base* buffer — that is what the node actually pins in memory — and a
    buffer reachable twice from one node is counted once.
    """
    seen: set = set()
    total = 0
    for value in saved:
        if isinstance(value, np.ndarray):
            root = value
            while isinstance(root.base, np.ndarray):
                root = root.base
            if id(root) not in seen:
                seen.add(id(root))
                total += root.nbytes
    return total


class OpNode:
    """One recorded operation: the IR unit ``Tensor.backward()`` walks."""

    __slots__ = ("op", "parents", "saved", "saved_bytes", "freed", "needs")

    def __init__(self, op: str, parents: tuple, saved: tuple):
        self.op = op
        self.parents = parents
        self.saved = saved
        self.saved_bytes = _retained_nbytes(saved)
        self.freed = False
        # Per-parent "gradient wanted" mask, filled in by the backward
        # walk just before dispatch.
        # ``None`` means "compute everything"; op backwards that honour the
        # mask skip dead input gradients (the sink would discard them).
        self.needs = None

    def free(self) -> int:
        """Drop saved activations + parent links; returns the bytes released."""
        released = self.saved_bytes
        self.saved = ()
        self.saved_bytes = 0
        self.parents = ()
        self.freed = True
        return released

    def __repr__(self) -> str:
        return (f"OpNode({self.op!r}, parents={len(self.parents)}, "
                f"saved_bytes={self.saved_bytes}, freed={self.freed})")


class OpSpec:
    """A registry entry: named forward/backward (+ grad-check sample)."""

    __slots__ = ("name", "forward", "backward", "sample")

    def __init__(self, name: str, forward: Callable, backward: Callable,
                 sample: Optional[Callable]):
        self.name = name
        self.forward = forward
        self.backward = backward
        self.sample = sample


_REGISTRY: Dict[str, OpSpec] = {}


def register_op(name: str):
    """Class decorator registering a differentiable op under ``name``.

    The decorated class provides::

        forward(ctx, *parents, **kwargs) -> np.ndarray   # ctx.save(...) state
        backward(node, grad, sink) -> None               # sink(i, grad_i)
        sample(rng) -> (fn, [tensors])                   # grad-check case

    ``sample`` is *required in CI*: ``tests/test_op_registry.py`` sweeps
    every registry entry through ``check_gradients``, so an op registered
    without a sample (or with a wrong backward) fails by construction.
    """

    def decorator(cls):
        if name in _REGISTRY:
            raise ValueError(f"op {name!r} already registered")
        sample = getattr(cls, "sample", None)
        _REGISTRY[name] = OpSpec(name, cls.forward, cls.backward, sample)
        return cls

    return decorator


def get_op(name: str) -> OpSpec:
    """Look up a registered op (KeyError on unknown names)."""
    return _REGISTRY[name]


def registered_ops() -> Dict[str, OpSpec]:
    """A snapshot of the registry (name -> spec), for sweeps and docs."""
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Op-level hooks
# ---------------------------------------------------------------------------

_forward_hooks: Dict[int, Callable] = {}
_backward_hooks: Dict[int, Callable] = {}
_next_hook_id = 0


class HookHandle:
    """Removable registration token returned by the ``add_op_*_hook``s."""

    def __init__(self, store: Dict[int, Callable], key: int):
        self._store = store
        self._key = key

    def remove(self) -> None:
        self._store.pop(self._key, None)


def _add_hook(store: Dict[int, Callable], fn: Callable) -> HookHandle:
    global _next_hook_id
    _next_hook_id += 1
    store[_next_hook_id] = fn
    return HookHandle(store, _next_hook_id)


def add_op_forward_hook(fn: Callable[[str, float, int], None]) -> HookHandle:
    """Fire ``fn(op_name, seconds, saved_bytes)`` after every op forward."""
    return _add_hook(_forward_hooks, fn)


def add_op_backward_hook(fn: Callable[[str, float, int], None]) -> HookHandle:
    """Fire ``fn(op_name, seconds, freed_bytes)`` after every node backward."""
    return _add_hook(_backward_hooks, fn)


def _clock() -> float:
    return time.perf_counter()


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------

class GraphProfiler:
    """Per-op (and optionally per-module) telemetry over a profiling session.

    Use as a context manager (or ``start()``/``stop()``)::

        profiler = GraphProfiler()
        profiler.attach(model)          # optional per-module timings
        with profiler:
            loss = step(); loss.backward()
        print(profiler.table())

    Collected per op type: call count, forward/backward wall-clock, and
    saved-activation bytes.  ``peak_saved_bytes`` is the high watermark of
    retained activation bytes over the session — with the default freeing
    policy it drops as backward consumes nodes, so it directly measures the
    memory the freeing policy saves versus ``retain_graph=True``.

    The watermark tracks free *events*: graphs that are built but never
    backwarded (and are garbage-collected instead) do not decrement it, so
    profile complete train steps for meaningful numbers.
    """

    def __init__(self):
        self.ops: Dict[str, Dict[str, float]] = {}
        self.modules: Dict[str, Dict[str, float]] = {}
        self.live_saved_bytes = 0
        self.peak_saved_bytes = 0
        self._handles: List[HookHandle] = []
        self._module_handles: list = []
        self._module_stacks: Dict[str, list] = {}

    # -- session lifecycle ---------------------------------------------
    def start(self) -> "GraphProfiler":
        if not self._handles:
            self._handles = [add_op_forward_hook(self._on_forward),
                             add_op_backward_hook(self._on_backward)]
        return self

    def stop(self) -> "GraphProfiler":
        for handle in self._handles:
            handle.remove()
        self._handles = []
        return self

    __enter__ = start

    def __exit__(self, *exc):
        self.stop()
        return False

    # -- op hooks -------------------------------------------------------
    def _op_entry(self, name: str) -> Dict[str, float]:
        entry = self.ops.get(name)
        if entry is None:
            entry = self.ops[name] = {"calls": 0, "forward_s": 0.0,
                                      "backward_s": 0.0, "saved_bytes": 0}
        return entry

    def _on_forward(self, name: str, seconds: float, saved_bytes: int) -> None:
        entry = self._op_entry(name)
        entry["calls"] += 1
        entry["forward_s"] += seconds
        entry["saved_bytes"] += saved_bytes
        self.live_saved_bytes += saved_bytes
        if self.live_saved_bytes > self.peak_saved_bytes:
            self.peak_saved_bytes = self.live_saved_bytes

    def _on_backward(self, name: str, seconds: float, freed_bytes: int) -> None:
        entry = self._op_entry(name)
        entry["backward_s"] += seconds
        self.live_saved_bytes -= freed_bytes

    # -- per-module forward hooks --------------------------------------
    def attach(self, model) -> "GraphProfiler":
        """Install forward hooks on every module in ``model.named_modules()``."""
        for name, module in model.named_modules():
            label = f"{name or type(model).__name__} ({type(module).__name__})"
            stack = self._module_stacks.setdefault(label, [])
            pre = module.register_forward_pre_hook(
                lambda m, args, _stack=stack: _stack.append(_clock()))
            post = module.register_forward_hook(
                lambda m, args, out, _stack=stack, _label=label:
                self._on_module(_label, _stack))
            self._module_handles.extend([pre, post])
        return self

    def detach(self) -> "GraphProfiler":
        for handle in self._module_handles:
            handle.remove()
        self._module_handles = []
        return self

    def _on_module(self, label: str, stack: list) -> None:
        if stack:
            elapsed = _clock() - stack.pop()
            entry = self.modules.get(label)
            if entry is None:
                entry = self.modules[label] = {"calls": 0, "seconds": 0.0}
            entry["calls"] += 1
            entry["seconds"] += elapsed

    # -- reporting ------------------------------------------------------
    def summary(self) -> dict:
        """Plain-dict snapshot (recorded on ``FitResult.profile``)."""
        return {
            "ops": {name: dict(stats) for name, stats in self.ops.items()},
            "modules": {name: dict(stats)
                        for name, stats in self.modules.items()},
            "peak_saved_bytes": self.peak_saved_bytes,
            "live_saved_bytes": self.live_saved_bytes,
        }

    def table(self) -> str:
        return format_profile(self.summary())


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:,.1f} {unit}" if unit != "B" else f"{int(n):,} B"
        n /= 1024.0
    return f"{n:,.1f} GiB"


def format_profile(summary: dict, top: int = 0) -> str:
    """Render a profiler summary dict as the CLI's ``--profile`` table."""
    ops = summary.get("ops", {})
    lines = [f"{'op':24s} {'calls':>8s} {'forward':>10s} {'backward':>10s} "
             f"{'saved':>12s}"]
    ranked = sorted(ops.items(),
                    key=lambda kv: kv[1]["forward_s"] + kv[1]["backward_s"],
                    reverse=True)
    if top:
        ranked = ranked[:top]
    total_f = total_b = 0.0
    for name, stats in ranked:
        total_f += stats["forward_s"]
        total_b += stats["backward_s"]
        lines.append(
            f"{name:24s} {stats['calls']:8d} {stats['forward_s'] * 1e3:8.1f}ms "
            f"{stats['backward_s'] * 1e3:8.1f}ms "
            f"{_fmt_bytes(stats['saved_bytes']):>12s}")
    lines.append(f"{'total':24s} {'':8s} {total_f * 1e3:8.1f}ms "
                 f"{total_b * 1e3:8.1f}ms "
                 f"{_fmt_bytes(summary.get('peak_saved_bytes', 0)):>12s} peak")
    modules = summary.get("modules", {})
    if modules:
        lines.append("")
        lines.append(f"{'module':44s} {'calls':>8s} {'forward':>10s}")
        ranked_mods = sorted(modules.items(),
                             key=lambda kv: kv[1]["seconds"], reverse=True)
        if top:
            ranked_mods = ranked_mods[:top]
        for name, stats in ranked_mods:
            lines.append(f"{name:44s} {stats['calls']:8d} "
                         f"{stats['seconds'] * 1e3:8.1f}ms")
    return "\n".join(lines)
