"""Graph compiler for the op IR: capture/replay compiled execution.

Eager ``apply()`` pays per-op overhead every step: a registry lookup, an
``OpContext``, a fresh ``Tensor``/``OpNode`` pair, hook dispatch, and —
on backward — a full DFS toposort of the graph.  For a fixed model and
batch shape the graph is identical step after step, so all of that work
can be done **once**: this module traces a step through the tape's
capture sink, compiles the trace into a flat instruction program plus an
exactly-eager-ordered backward program, and replays both programs over
preallocated boxes.  A replay builds no ``Tensor`` and no ``OpNode``.

The backward program carries the eager walk's dead-gradient masks
(``node.needs``), so op backwards skip parent gradients no sink keeps.

Correctness is *validated, then assumed*: the first replay of every
(shape, dtype, mode, trace-signature) key runs the eager step too and
compares loss, every parameter gradient, and the RNG stream position
bitwise.  Any mismatch — or any construct the tracer cannot prove safe —
permanently falls back to eager execution for that step object and emits
a ``compile.fallback`` observability event.  Shape changes (a short
final batch, a new horizon) simply miss the graph cache and trigger a
fresh capture, never wrong results.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import (
    _backward_hooks, _clock, _forward_hooks, _retained_nbytes, get_op,
)
from .tensor import Tensor, _state, _topo_order, as_array, no_grad, unbroadcast

__all__ = [
    "CompileUnsupported", "CompiledGraph", "CompiledStep", "CompiledForward",
    "make_compiled_forward",
]


class CompileUnsupported(RuntimeError):
    """The traced step contains a construct the compiler cannot replay."""


# Sentinel replacing the process-global RNG in baked kwargs; re-resolved
# via get_rng() at every replay so set_seed() keeps working and the
# compiled dropout stream matches eager draw-for-draw.
_GLOBAL_RNG = object()


def _rng():
    from ..utils import get_rng
    return get_rng()


def _rng_state():
    return copy.deepcopy(_rng().bit_generator.state)


def _restore_rng(state) -> None:
    _rng().bit_generator.state = copy.deepcopy(state)


def _emit_event(name: str, attrs: Dict[str, Any]) -> None:
    try:
        from ..obs import runtime as _obs
        observer = _obs.active()
    except Exception:
        return
    if observer is not None:
        try:
            observer.event(name, attrs)
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------

class _Box:
    """A one-field stand-in for Tensor during replay: op forwards read only
    ``parent.data`` (checked property of the registry), so replay skips the
    Tensor constructor entirely."""

    __slots__ = ("data",)

    def __init__(self, data=None):
        self.data = data


class _NullCtx:
    """Shared no-op context for instructions that never run backward."""

    __slots__ = ()

    def save(self, *values) -> None:
        pass


_NULL_CTX = _NullCtx()


class _ReplayNode:
    """Doubles as the forward ctx and backward node of one instruction."""

    __slots__ = ("op", "saved", "saved_bytes", "needs")

    def __init__(self, op: str):
        self.op = op
        self.saved: tuple = ()
        self.saved_bytes = 0
        # Static per-parent gradient mask, the one the eager walk sets
        # before dispatch: op backwards skip gradients the sink discards.
        self.needs: Optional[tuple] = None

    def save(self, *values) -> None:
        self.saved = values


class _Instr:
    """One captured apply() call; :class:`CompiledGraph` binds it to boxes."""

    __slots__ = ("op", "parent_slots", "kwargs", "rng_keys", "out_slot",
                 "requires", "fn", "bwd", "ctx", "pboxes", "out_box")

    def __init__(self, op, parent_slots, kwargs, rng_keys, out_slot,
                 requires):
        self.op = op
        self.parent_slots = parent_slots
        self.kwargs = kwargs
        self.rng_keys = rng_keys
        self.out_slot = out_slot
        self.requires = requires
        self.fn = self.bwd = self.ctx = self.pboxes = self.out_box = None


class _CaptureTape:
    """Capture sink installed in ``_state.capture`` for one traced step.

    Slots are integers keyed by ``id(array)`` at record time; the tape
    holds strong references to every slot array so ids cannot be reused
    while the tape (or the graph built from it) is alive.
    """

    def __init__(self) -> None:
        self.records: List[_Instr] = []
        self.slot_arrays: List[np.ndarray] = []
        self.slot_of: Dict[int, int] = {}
        self.leaf_slots: Dict[int, Tensor] = {}
        self.node_to_instr: Dict[int, _Instr] = {}
        self._nodes: List[Any] = []  # keep OpNodes alive for id stability

    def _slot_for_array(self, arr: np.ndarray) -> int:
        slot = len(self.slot_arrays)
        self.slot_arrays.append(arr)
        self.slot_of[id(arr)] = slot
        return slot

    def record(self, name, parents, kwargs, out, node) -> None:
        parent_slots = []
        for p in parents:
            slot = self.slot_of.get(id(p.data))
            if slot is None:
                slot = self._slot_for_array(p.data)
                self.leaf_slots[slot] = p
            parent_slots.append(slot)
        baked, rng_keys = self._scrub_kwargs(name, kwargs)
        ins = _Instr(name, tuple(parent_slots), baked, rng_keys,
                     self._slot_for_array(out.data), node is not None)
        self.records.append(ins)
        if node is not None:
            self.node_to_instr[id(node)] = ins
            self._nodes.append(node)

    def _scrub_kwargs(self, name, kwargs):
        rng_keys = []
        baked = {}
        for key, value in kwargs.items():
            if isinstance(value, np.random.Generator):
                if value is not _rng():
                    raise CompileUnsupported(
                        f"op {name!r} consumes a non-global RNG; the "
                        "compiler can only re-resolve the process RNG")
                baked[key] = _GLOBAL_RNG
                rng_keys.append(key)
            else:
                baked[key] = value
        return baked, tuple(rng_keys)


@contextmanager
def _capturing(tape: _CaptureTape):
    if _state.capture is not None:
        raise CompileUnsupported("nested graph capture")
    _state.capture = tape.record
    try:
        yield tape
    finally:
        _state.capture = None


# ---------------------------------------------------------------------------
# Compiled graph
# ---------------------------------------------------------------------------

class CompiledGraph:
    """A captured step compiled to forward/backward instruction programs.

    Both programs replay through one interpretive loop each, before and
    after validation and with or without profiler hooks.
    """

    def __init__(self, tape: _CaptureTape, batch_arrays: Sequence[np.ndarray],
                 out_tensor: Tensor, mode: str):
        if not tape.records:
            raise CompileUnsupported("no ops captured")
        self.mode = mode

        out_slot = tape.slot_of.get(id(out_tensor.data))
        if out_slot is None:
            raise CompileUnsupported(
                "the step output is not produced by a captured op")
        self._out_slot = out_slot

        # --- leaf binding -------------------------------------------------
        boxes = [_Box() for _ in tape.slot_arrays]
        self._out_box = boxes[out_slot]
        self._param_binds: List[Tuple[_Box, Tensor]] = []
        self._batch_binds: List[Tuple[_Box, int]] = []
        self.bound_batch: set = set()
        for slot, leaf in tape.leaf_slots.items():
            box = boxes[slot]
            if leaf.requires_grad:
                self._param_binds.append((box, leaf))
                continue
            for bi, arr in enumerate(batch_arrays):
                if leaf.data is arr:
                    self._batch_binds.append((box, bi))
                    self.bound_batch.add(bi)
                    break
            else:
                box.data = leaf.data  # baked constant (e.g. a PE table)

        # --- instruction program -----------------------------------------
        for ins in tape.records:
            spec = get_op(ins.op)
            ins.fn = spec.forward
            ins.pboxes = tuple(boxes[s] for s in ins.parent_slots)
            ins.out_box = boxes[ins.out_slot]
            if ins.requires:
                ins.bwd = spec.backward
                ins.ctx = _ReplayNode(ins.op)
            else:
                ins.ctx = _NULL_CTX
        self._prog = tape.records
        self.stateful = any(ins.rng_keys for ins in self._prog)

        # --- backward program --------------------------------------------
        self._bwd: List[tuple] = []
        self._grads: Dict[int, np.ndarray] = {}
        self._owned: set = set()
        if mode == "train":
            self._build_backward(tape, out_tensor)

    # ------------------------------------------------------------------
    def _build_backward(self, tape, out_tensor) -> None:
        grads, owned = self._grads, self._owned
        slot_arrays = tape.slot_arrays
        requires_slot = {slot: leaf.requires_grad
                         for slot, leaf in tape.leaf_slots.items()}
        requires_slot.update((ins.out_slot, ins.requires)
                             for ins in tape.records)

        def make_sink(pinfo):
            def sink(index: int, g: np.ndarray) -> None:
                info = pinfo[index]
                if info is None:
                    return
                slot, shape, dtype, param = info
                # Fast path: gradients in a fixed trace almost always land
                # already shaped/typed; the coercion below is then a no-op
                # (asarray identity + unbroadcast early return).
                if (type(g) is not np.ndarray or g.shape != shape
                        or g.dtype != dtype):
                    g = unbroadcast(np.asarray(g, dtype=dtype), shape)
                if param is not None:
                    param._accumulate(g)
                    return
                buf = grads.get(slot)
                if buf is None:
                    grads[slot] = g
                elif slot in owned:
                    np.add(buf, g, out=buf)
                else:
                    grads[slot] = buf + g
                    owned.add(slot)
            return sink

        for t in reversed(_topo_order(out_tensor)):
            node = t._node
            if node is None:
                continue
            ins = tape.node_to_instr.get(id(node))
            if ins is None:
                raise CompileUnsupported(
                    f"graph references op {node.op!r} recorded outside "
                    "the captured step")
            pinfo = tuple(
                (pslot, slot_arrays[pslot].shape, slot_arrays[pslot].dtype,
                 tape.leaf_slots.get(pslot))
                if requires_slot.get(pslot, False) else None
                for pslot in ins.parent_slots)
            ins.ctx.needs = tuple(info is not None for info in pinfo)
            self._bwd.append((ins.bwd, ins.ctx, ins.out_slot,
                              make_sink(pinfo)))

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def run_forward(self, batch_arrays: Optional[Sequence[np.ndarray]] = None
                    ) -> np.ndarray:
        for box, leaf in self._param_binds:
            box.data = leaf.data
        if batch_arrays is not None:
            for box, bi in self._batch_binds:
                box.data = batch_arrays[bi]
        for ins in self._prog:
            kw = ins.kwargs
            if ins.rng_keys:
                kw = dict(kw)
                live = _rng()
                for key in ins.rng_keys:
                    kw[key] = live
            if not _forward_hooks:
                ins.out_box.data = ins.fn(ins.ctx, *ins.pboxes, **kw)
                continue
            # Per-op hook telemetry, charged like eager apply() charges it.
            t0 = _clock()
            ins.out_box.data = ins.fn(ins.ctx, *ins.pboxes, **kw)
            elapsed = _clock() - t0
            nbytes = 0
            if ins.requires:
                ins.ctx.saved_bytes = nbytes = _retained_nbytes(ins.ctx.saved)
            for hook in tuple(_forward_hooks.values()):
                hook(ins.op, elapsed, nbytes)
        return self._out_box.data

    def run_backward(self) -> None:
        grads, owned = self._grads, self._owned
        grads.clear()
        owned.clear()
        grads[self._out_slot] = np.ones_like(self._out_box.data)
        for bwd, node, out_slot, sink in self._bwd:
            g = grads.pop(out_slot, None)
            owned.discard(out_slot)
            if g is None:
                continue
            if _backward_hooks:
                t0 = _clock()
                bwd(node, g, sink)
                elapsed = _clock() - t0
                for hook in tuple(_backward_hooks.values()):
                    hook(node.op, elapsed, node.saved_bytes)
            else:
                bwd(node, g, sink)
            node.saved = ()
            node.saved_bytes = 0
        grads.clear()
        owned.clear()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "instructions": len(self._prog),
            "stateful": self.stateful,
        }


# ---------------------------------------------------------------------------
# Per-model graph cache (shared by the train and serve wrappers)
# ---------------------------------------------------------------------------

class _GraphCache:
    """Trace-key -> graph LRU, signature cache, counters, eager fallback."""

    mode = ""

    def __init__(self, model, max_graphs: int):
        if not hasattr(model, "trace_signature"):
            raise CompileUnsupported(
                f"{type(model).__name__} does not expose trace_signature(); "
                "compiled mode needs it to key data-dependent control flow")
        self.model = model
        self.max_graphs = max_graphs
        self._graphs: "OrderedDict[tuple, list]" = OrderedDict()
        # Content-hash -> trace signature.  trace_signature() replays the
        # normalisation + trend decomposition eagerly, which costs real
        # milliseconds; recurring batch contents (fixed loaders, epoch
        # revisits, steady-state benches, repeated windows) hit this
        # cache instead.
        self._sig_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.disabled = False
        self.disabled_reason: Optional[str] = None
        self.captures = 0
        self.validations = 0
        self.replays = 0

    def _disable(self, reason: str) -> None:
        self.disabled = True
        self.disabled_reason = reason
        self._graphs.clear()
        _emit_event("compile.fallback", {
            "reason": reason, "model": type(self.model).__name__,
            "mode": self.mode})

    def _signature(self, x: np.ndarray) -> tuple:
        digest = (x.shape, x.dtype.str, hashlib.sha1(x.tobytes()).digest())
        sig = self._sig_cache.get(digest)
        if sig is None:
            sig = tuple(self.model.trace_signature(x))
            self._sig_cache[digest] = sig
            while len(self._sig_cache) > 64:
                self._sig_cache.popitem(last=False)
        else:
            self._sig_cache.move_to_end(digest)
        return sig

    def _remember(self, key: tuple, graph: CompiledGraph) -> None:
        self.captures += 1
        self._graphs[key] = [graph, False]
        while len(self._graphs) > self.max_graphs:
            self._graphs.popitem(last=False)
        _emit_event("compile.capture",
                    dict(graph.stats(), model=type(self.model).__name__))

    def _validated(self, entry: list) -> None:
        entry[1] = True
        self.validations += 1
        _emit_event("compile.validated",
                    dict(entry[0].stats(), model=type(self.model).__name__))

    def stats(self) -> Dict[str, Any]:
        return {
            "graphs": len(self._graphs),
            "captures": self.captures,
            "validations": self.validations,
            "replays": self.replays,
            "disabled": self.disabled,
            "disabled_reason": self.disabled_reason,
        }


# ---------------------------------------------------------------------------
# Compiled training step
# ---------------------------------------------------------------------------

class CompiledStep(_GraphCache):
    """Capture/validate/replay wrapper around a training ``step_fn``.

    ``step_fn(batch) -> (loss, ...)`` is the trainer's step closure.  The
    first step for each trace key runs eagerly *while capturing*; the
    second validates the compiled replay bitwise against a redundant eager
    step (loss, every parameter gradient, and the RNG stream position);
    replays from the third step on.  Any unsupported construct or
    validation mismatch permanently disables the instance — every
    subsequent step runs plain eager code.
    """

    mode = "train"

    def __init__(self, model, step_fn: Callable, max_graphs: int = 8,
                 tag: str = ""):
        super().__init__(model, max_graphs)
        self.step_fn = step_fn
        # Trace-key namespace (the task name when fitting through the task
        # registry): two tasks may train the same model with different
        # step_fns over identically-shaped batches, and their captures
        # must never collide.
        self.tag = tag
        self._params: Optional[tuple] = None

    # -- eager fallback ------------------------------------------------
    def _eager(self, batch) -> float:
        self.model.zero_grad()
        loss = self.step_fn(batch)[0]
        loss.backward()
        return float(loss.data)

    # -- keying --------------------------------------------------------
    def _key(self, arrays) -> tuple:
        return (
            self.tag,
            tuple((a.shape, a.dtype.str) for a in arrays),
            bool(getattr(self.model, "training", True)),
            np.dtype(_state.default_dtype).str,
            self._signature(arrays[0]),
        )

    # -- the step ------------------------------------------------------
    def step(self, batch) -> float:
        if self.disabled:
            return self._eager(batch)
        try:
            # Normalise the batch structure: forecasting yields (x, y)
            # tuples, imputation/anomaly yield one bare window array.  The
            # trace key and graph binding always see a tuple of arrays;
            # the step_fn sees the original structure (``payload``).
            bare = not isinstance(batch, (tuple, list))
            items = (batch,) if bare else batch
            default = np.dtype(_state.default_dtype)
            arrays = tuple(
                a if type(a) is np.ndarray and a.dtype == default
                else (as_array(a)
                      if np.issubdtype(np.asarray(a).dtype, np.floating)
                      else np.asarray(a))
                for a in items)
            payload = arrays[0] if bare else arrays
            key = self._key(arrays)
        except Exception as exc:  # trace keys must never break training
            self._disable(f"trace key failed: {exc!r}")
            return self._eager(batch)
        entry = self._graphs.get(key)
        if entry is None:
            return self._capture(key, arrays, payload)
        self._graphs.move_to_end(key)
        graph, validated = entry
        if not validated:
            return self._validate(entry, arrays, payload)
        # AOT-resolved zero_grad: ``Module.zero_grad`` re-walks the module
        # tree every call; the parameter set is fixed for a live trace.
        params = self._params
        if params is None:
            params = self._params = tuple(self.model.parameters())
        for p in params:
            p.grad = None
        loss_arr = graph.run_forward(arrays)
        graph.run_backward()
        self.replays += 1
        return float(loss_arr)

    # -- capture -------------------------------------------------------
    def _capture(self, key, arrays, payload) -> float:
        state0 = _rng_state()
        self.model.zero_grad()
        tape = _CaptureTape()
        try:
            with _capturing(tape):
                loss = self.step_fn(payload)[0]
        except CompileUnsupported as exc:
            # The traced step may have consumed RNG draws before failing;
            # rewind and run the whole step eagerly so the trajectory is
            # exactly what an uncompiled run would produce.
            _restore_rng(state0)
            self._disable(str(exc))
            return self._eager(payload)
        try:
            if not isinstance(loss, Tensor) or not loss.requires_grad:
                raise CompileUnsupported("step loss is not a grad tensor")
            if loss.data.size != 1:
                raise CompileUnsupported("step loss is not a scalar")
            graph = CompiledGraph(tape, arrays, loss, mode="train")
            missing = [bi for bi, arr in enumerate(arrays)
                       if isinstance(arr, np.ndarray)
                       and bi not in graph.bound_batch]
            if missing:
                raise CompileUnsupported(
                    f"batch element(s) {missing} did not bind into the "
                    "captured graph; their values would be baked")
        except CompileUnsupported as exc:
            # The eager step already ran while capturing — finish it.
            loss.backward()
            self._disable(str(exc))
            return float(loss.data)
        loss.backward()
        self._remember(key, graph)
        return float(loss.data)

    # -- bitwise validation against a redundant eager step -------------
    def _validate(self, entry, arrays, payload) -> float:
        model = self.model
        graph = entry[0]
        params = list(model.parameters())
        state0 = _rng_state()
        model.zero_grad()
        loss = self.step_fn(payload)[0]
        loss.backward()
        eager_loss = float(loss.data)
        eager_loss_bytes = loss.data.tobytes()
        eager_grads = [None if p.grad is None else p.grad.copy()
                       for p in params]
        state1 = _rng_state()
        _restore_rng(state0)
        model.zero_grad()
        ok = True
        try:
            out = graph.run_forward(arrays)
            graph.run_backward()
            ok = (out.tobytes() == eager_loss_bytes
                  and _rng_state() == state1)
            if ok:
                for p, g in zip(params, eager_grads):
                    pg = p.grad
                    if g is None or pg is None:
                        ok = g is None and pg is None
                    else:
                        ok = (pg.dtype == g.dtype and pg.shape == g.shape
                              and pg.tobytes() == g.tobytes())
                    if not ok:
                        break
        except Exception:
            ok = False
        if not ok:
            for p, g in zip(params, eager_grads):
                p.grad = g
            _restore_rng(state1)
            self._disable("compiled replay did not reproduce the eager "
                          "step bitwise")
            return eager_loss
        self._validated(entry)
        return eager_loss


# ---------------------------------------------------------------------------
# Compiled inference forward (serving)
# ---------------------------------------------------------------------------

class CompiledForward(_GraphCache):
    """Compiled ``no_grad`` forward for serving, keyed per input shape.

    Thread-safe (one replay at a time per instance — boxes and replay
    contexts are not reentrant).  Serving hot-reload invalidation is
    structural: the registry builds a *new* ``CompiledForward`` per model
    entry, so swapping the entry atomically retires every compiled graph
    of the old weights.
    """

    mode = "infer"

    def __init__(self, model, max_graphs: int = 8):
        super().__init__(model, max_graphs)
        self._lock = threading.Lock()

    def _eager(self, arr: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.model(Tensor(arr)).data

    def forward(self, arr: np.ndarray) -> np.ndarray:
        # Mirror Tensor()'s coercion up front so the traced input leaf
        # identity-binds to this exact array.
        arr = as_array(np.asarray(arr))
        if self.disabled:
            return self._eager(arr)
        with self._lock:
            return self._forward_locked(arr)

    __call__ = forward

    def _forward_locked(self, arr: np.ndarray) -> np.ndarray:
        try:
            key = (arr.shape, arr.dtype.str,
                   np.dtype(_state.default_dtype).str,
                   bool(getattr(self.model, "training", False)),
                   self._signature(arr))
        except Exception as exc:
            self._disable(f"trace key failed: {exc!r}")
            return self._eager(arr)
        entry = self._graphs.get(key)
        if entry is None:
            return self._capture(key, arr)
        self._graphs.move_to_end(key)
        graph, validated = entry
        if not validated:
            ref = self._eager(arr)
            ok = True
            try:
                rep = graph.run_forward((arr,))
                ok = (rep.dtype == ref.dtype and rep.shape == ref.shape
                      and rep.tobytes() == ref.tobytes())
            except Exception:
                ok = False
            if not ok:
                self._disable("compiled forward did not reproduce the "
                              "eager forward bitwise")
                return ref
            self._validated(entry)
            return ref
        self.replays += 1
        return graph.run_forward((arr,))

    def _capture(self, key, arr: np.ndarray) -> np.ndarray:
        tape = _CaptureTape()
        try:
            with no_grad(), _capturing(tape):
                out = self.model(Tensor(arr))
            graph = CompiledGraph(tape, (arr,), out, mode="infer")
            if graph.stateful:
                raise CompileUnsupported(
                    "inference graph consumes RNG state")
            if 0 not in graph.bound_batch:
                raise CompileUnsupported(
                    "input window did not bind into the captured graph")
        except CompileUnsupported as exc:
            self._disable(str(exc))
            return self._eager(arr)
        self._remember(key, graph)
        return out.data


def make_compiled_forward(model) -> Optional[CompiledForward]:
    """Best-effort :class:`CompiledForward` factory (None if unsupported)."""
    try:
        return CompiledForward(model)
    except CompileUnsupported:
        return None
