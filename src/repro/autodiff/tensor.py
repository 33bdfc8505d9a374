"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the lowest layer of the reproduction: everything the paper
runs in PyTorch (TS3Net, the baselines, Adam) runs here on a from-scratch
``Tensor`` that records a computation graph and back-propagates through it.

The tape is an explicit op-graph IR (see :mod:`repro.autodiff.graph`):

* every differentiable operation is a *registered op* — a named
  forward/backward pair in the op registry — and applying one records an
  :class:`~repro.autodiff.graph.OpNode` (op name, parents, saved tensors)
  on the output;
* :meth:`Tensor.backward` topologically sorts the node graph and runs each
  node's registered backward in reverse order, accumulating gradients
  **in place** into per-tensor buffers (``np.add(..., out=...)`` after the
  first owned allocation);
* saved activations are **freed as soon as their node's backward has run**
  unless ``retain_graph=True`` is passed, so peak retained memory decays
  over the course of the backward pass;
* broadcasting is handled by summing gradients over broadcast axes
  (:func:`unbroadcast`).

Only ``float`` dtypes participate in differentiation.  Integer tensors are
allowed as indices/masks but never receive gradients.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple, Union

import numpy as np

from .graph import (
    OpContext, OpNode, _backward_hooks, _clock, _forward_hooks, get_op,
    register_op,
)

ArrayLike = Union[np.ndarray, float, int, list, tuple]

DEFAULT_DTYPE = np.float64


class _EngineState(threading.local):
    """Per-thread autodiff mode flags (grad recording, default float dtype).

    The class attributes are the boot defaults every fresh thread starts
    from; assigning an attribute creates a thread-local override.  This is
    what makes ``no_grad()`` / ``precision()`` safe under concurrency: a
    serving worker thread entering ``no_grad`` can never flip grad mode for
    a training loop running on another thread.  Main-thread semantics are
    unchanged.  Note that a newly spawned thread starts from the boot
    defaults (grad on, ``DEFAULT_DTYPE``), not from the spawning thread's
    current overrides.
    """

    grad_enabled = True
    default_dtype = DEFAULT_DTYPE


_state = _EngineState()

_PRECISIONS = {
    "float32": np.float32,
    "float64": np.float64,
    "f32": np.float32,
    "f64": np.float64,
    "single": np.float32,
    "double": np.float64,
}


def resolve_dtype(precision_or_dtype) -> np.dtype:
    """Map ``'float32'``/``'float64'`` (or a dtype) to a NumPy float dtype."""
    if isinstance(precision_or_dtype, str):
        try:
            return np.dtype(_PRECISIONS[precision_or_dtype])
        except KeyError:
            raise ValueError(
                f"unknown precision {precision_or_dtype!r}; choose from "
                f"{sorted(set(_PRECISIONS))}") from None
    dtype = np.dtype(precision_or_dtype)
    if not np.issubdtype(dtype, np.floating):
        raise ValueError(f"precision dtype must be floating, got {dtype}")
    return dtype


def set_default_dtype(precision_or_dtype) -> None:
    """Set the float dtype new tensors are created with (thread-local)."""
    _state.default_dtype = resolve_dtype(precision_or_dtype).type


def get_default_dtype() -> np.dtype:
    """The float dtype that :class:`Tensor` construction coerces to."""
    return np.dtype(_state.default_dtype)


class precision:
    """Context manager scoping the engine's default float dtype.

    ``with precision('float32'): ...`` makes every tensor built inside the
    block single precision; the previous default is restored on exit.  The
    boot default is ``float64`` (``DEFAULT_DTYPE``) so seed results are
    unchanged unless a caller opts in.
    """

    def __init__(self, precision_or_dtype):
        self._dtype = resolve_dtype(precision_or_dtype).type

    def __enter__(self):
        self._prev = _state.default_dtype
        _state.default_dtype = self._dtype
        return self

    def __exit__(self, *exc):
        _state.default_dtype = self._prev
        return False


class no_grad:
    """Context manager disabling graph construction (like ``torch.no_grad``).

    The flag is thread-local: entering ``no_grad`` on one thread does not
    affect graph recording on any other thread.
    """

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether this thread records new operations on the tape."""
    return _state.grad_enabled


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    If a forward op broadcast an operand of ``shape`` up to ``grad.shape``,
    the operand's gradient is the sum of ``grad`` over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a NumPy array of the engine's default dtype."""
    arr = np.asarray(value)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if np.issubdtype(arr.dtype, np.floating):
        return arr.astype(_state.default_dtype, copy=False)
    return arr


class Tensor:
    """A NumPy array plus the bookkeeping needed for backpropagation.

    Parameters
    ----------
    data:
        The wrapped array (or anything ``np.asarray`` accepts).
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    __array_priority__ = 100  # make NumPy defer to our reflected operators

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None):
        self.data = as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._node: Optional[OpNode] = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=16)}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); detached from the graph."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Gradient plumbing
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None,
                 retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded op graph.

        Unless ``retain_graph=True``, every node's saved activations are
        released as soon as its backward has run, and a second backward
        through the same graph raises.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order = _topo_order(self)

        # Pending gradient buffers, keyed by tensor id.  ``owned`` marks
        # buffers this walk allocated itself: those accumulate in place
        # (np.add(..., out=...)); first contributions are stored zero-copy
        # and are never mutated, since they may alias an upstream buffer.
        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: set[int] = set()
        for i in range(len(order) - 1, -1, -1):
            tensor_ = order[i]
            order[i] = None  # type: ignore[call-overload]  # release for GC
            key = id(tensor_)
            node_grad = grads.pop(key, None)
            owned.discard(key)
            if node_grad is None:
                continue
            node = tensor_._node
            if node is None:
                tensor_._accumulate(node_grad)
                continue
            _run_node_backward(node, node_grad, grads, owned, retain_graph)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(as_array(other, dtype=self.data.dtype))

    def __add__(self, other):
        return apply("add", self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return apply("sub", self, self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        return apply("mul", self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return apply("div", self, self._coerce(other))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return apply("neg", self)

    def __pow__(self, exponent: float):
        return apply("pow", self, exponent=float(exponent))

    def __matmul__(self, other):
        return apply("matmul", self, self._coerce(other))

    # Comparisons produce detached boolean arrays.
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply("reshape", self, shape=shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        return apply("transpose", self, axes=axes)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, idx) -> "Tensor":
        return apply("getitem", self, idx=idx)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        return apply("squeeze", self, axis=axis)

    def unsqueeze(self, axis: int) -> "Tensor":
        return apply("unsqueeze", self, axis=axis)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("mean", self, axis=axis, keepdims=keepdims)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        diff = self - mu
        out = (diff * diff).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("max", self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return apply("exp", self)

    def log(self) -> "Tensor":
        return apply("log", self)

    def sqrt(self) -> "Tensor":
        return apply("sqrt", self)

    def abs(self) -> "Tensor":
        return apply("abs", self)

    def tanh(self) -> "Tensor":
        return apply("tanh", self)

    def sin(self) -> "Tensor":
        return apply("sin", self)

    def cos(self) -> "Tensor":
        return apply("cos", self)

    def clip(self, lo: Optional[float] = None, hi: Optional[float] = None) -> "Tensor":
        return apply("clip", self, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# The single door into the tape
# ---------------------------------------------------------------------------

def _topo_order(root: "Tensor") -> list:
    """Iterative DFS topological order of ``root``'s recorded graph.

    ``Tensor.backward`` processes nodes in the reverse of this list.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        tensor_, processed = stack.pop()
        if processed:
            order.append(tensor_)
            continue
        if id(tensor_) in visited:
            continue
        visited.add(id(tensor_))
        stack.append((tensor_, True))
        node = tensor_._node
        if node is not None:
            if node.freed:
                raise RuntimeError(
                    f"backward through {node.op!r} a second time, but its "
                    "saved activations were already freed; pass "
                    "retain_graph=True to the first backward")
            for parent in node.parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
    return order


def apply(name: str, *parents: Tensor, **kwargs) -> Tensor:
    """Run registered op ``name`` on ``parents``, recording an OpNode.

    This is the only constructor of graph edges: every differentiable op —
    tensor methods, :mod:`repro.autodiff.ops` functionals, and the spectral
    ops — routes through here, which is what makes per-op hooks and the
    registry-driven gradient-check sweep exhaustive by construction.
    """
    spec = get_op(name)
    ctx = OpContext()
    if _forward_hooks:
        t0 = _clock()
        out_data = spec.forward(ctx, *parents, **kwargs)
        elapsed = _clock() - t0
    else:
        out_data = spec.forward(ctx, *parents, **kwargs)
    requires = _state.grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=requires)
    node = None
    if requires:
        node = OpNode(name, parents, ctx.saved)
        out._node = node
    if _forward_hooks:
        nbytes = node.saved_bytes if node is not None else 0
        for hook in tuple(_forward_hooks.values()):
            hook(name, elapsed, nbytes)
    return out


def _run_node_backward(node: OpNode, grad: np.ndarray,
                       grads: dict, owned: set, retain_graph: bool) -> None:
    """Run one node's registered backward, staging gradients per parent."""
    parents = node.parents

    def sink(index: int, g: np.ndarray) -> None:
        parent = parents[index]
        if not parent.requires_grad:
            return
        g = unbroadcast(np.asarray(g, dtype=parent.data.dtype), parent.data.shape)
        if parent._node is None:
            parent._accumulate(g)
            return
        key = id(parent)
        buf = grads.get(key)
        if buf is None:
            grads[key] = g
        elif key in owned:
            np.add(buf, g, out=buf)
        else:
            grads[key] = buf + g
            owned.add(key)

    spec = get_op(node.op)
    # Dead-gradient elimination: tell the op which parent gradients are
    # actually wanted so it can skip computing the rest (the sink above
    # would only discard them).
    node.needs = tuple(p.requires_grad for p in parents)
    if _backward_hooks:
        t0 = _clock()
        spec.backward(node, grad, sink)
        elapsed = _clock() - t0
        freed = 0 if retain_graph else node.free()
        for hook in tuple(_backward_hooks.values()):
            hook(node.op, elapsed, freed)
    else:
        spec.backward(node, grad, sink)
        if not retain_graph:
            node.free()


# ---------------------------------------------------------------------------
# Registered ops: arithmetic
# ---------------------------------------------------------------------------

def _pair_sample(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return a, b


@register_op("add")
class _Add:
    @staticmethod
    def forward(ctx, a, b):
        return a.data + b.data

    @staticmethod
    def backward(node, grad, sink):
        sink(0, grad)
        sink(1, grad)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4,)), requires_grad=True)
        return (lambda a, b: a + b), [a, b]


@register_op("sub")
class _Sub:
    @staticmethod
    def forward(ctx, a, b):
        return a.data - b.data

    @staticmethod
    def backward(node, grad, sink):
        needs = node.needs
        if needs is None or needs[0]:
            sink(0, grad)
        if needs is None or needs[1]:
            sink(1, -grad)

    @staticmethod
    def sample(rng):
        a, b = _pair_sample(rng)
        return (lambda a, b: a - b), [a, b]


@register_op("mul")
class _Mul:
    @staticmethod
    def forward(ctx, a, b):
        ctx.save(a.data, b.data)
        return a.data * b.data

    @staticmethod
    def backward(node, grad, sink):
        a, b = node.saved
        needs = node.needs
        if needs is None or needs[0]:
            sink(0, grad * b)
        if needs is None or needs[1]:
            sink(1, grad * a)

    @staticmethod
    def sample(rng):
        a, b = _pair_sample(rng)
        return (lambda a, b: a * b), [a, b]


@register_op("div")
class _Div:
    @staticmethod
    def forward(ctx, a, b):
        ctx.save(a.data, b.data)
        return a.data / b.data

    @staticmethod
    def backward(node, grad, sink):
        a, b = node.saved
        needs = node.needs
        if needs is None or needs[0]:
            sink(0, grad / b)
        if needs is None or needs[1]:
            sink(1, -grad * a / (b ** 2))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)) + 3.0, requires_grad=True)
        return (lambda a, b: a / b), [a, b]


@register_op("neg")
class _Neg:
    @staticmethod
    def forward(ctx, a):
        return -a.data

    @staticmethod
    def backward(node, grad, sink):
        sink(0, -grad)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a: -a), [a]


@register_op("pow")
class _Pow:
    @staticmethod
    def forward(ctx, a, *, exponent):
        ctx.save(a.data, exponent)
        return a.data ** exponent

    @staticmethod
    def backward(node, grad, sink):
        a, exponent = node.saved
        sink(0, grad * exponent * a ** (exponent - 1.0))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a: a ** 3), [a]


@register_op("matmul")
class _MatMul:
    @staticmethod
    def forward(ctx, a, b):
        ctx.save(a.data, b.data)
        return a.data @ b.data

    @staticmethod
    def backward(node, grad, sink):
        a, b = node.saved
        needs = node.needs
        need_a = needs is None or needs[0]
        need_b = needs is None or needs[1]
        if a.ndim == 1 and b.ndim == 1:
            if need_a:
                sink(0, grad * b)
            if need_b:
                sink(1, grad * a)
            return
        if a.ndim == 1:
            # (k,) @ (..., k, n) -> (..., n)
            if need_a:
                sink(0, (grad[..., None, :] * b).sum(axis=-1).reshape(a.shape)
                     if b.ndim > 2 else b @ grad)
            if need_b:
                sink(1, np.multiply.outer(a, grad) if b.ndim == 2
                     else a[:, None] * grad[..., None, :])
            return
        if b.ndim == 1:
            if need_a:
                sink(0, np.multiply.outer(grad, b).reshape(a.shape)
                     if a.ndim == 2 else grad[..., None] * b)
            if need_b:
                sink(1, (a * grad[..., None]).reshape(-1, a.shape[-1])
                     .sum(axis=0))
            return
        if need_a:
            sink(0, grad @ np.swapaxes(b, -1, -2))
        if need_b:
            sink(1, np.swapaxes(a, -1, -2) @ grad)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        return (lambda a, b: a @ b), [a, b]


# ---------------------------------------------------------------------------
# Registered ops: shape
# ---------------------------------------------------------------------------

@register_op("reshape")
class _Reshape:
    @staticmethod
    def forward(ctx, a, *, shape):
        ctx.save(a.data.shape)
        return a.data.reshape(shape)

    @staticmethod
    def backward(node, grad, sink):
        (src_shape,) = node.saved
        sink(0, grad.reshape(src_shape))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        return (lambda a: a.reshape(3, 4)), [a]


_TRANSPOSE_INV: dict = {}


@register_op("transpose")
class _Transpose:
    @staticmethod
    def forward(ctx, a, *, axes):
        # The inverse permutation depends only on ``axes``; cache it (the
        # saved array is read-only in backward, so sharing is safe).
        inv = _TRANSPOSE_INV.get(axes)
        if inv is None:
            inv = _TRANSPOSE_INV[axes] = np.argsort(axes)
        ctx.save(inv)
        return a.data.transpose(axes)

    @staticmethod
    def backward(node, grad, sink):
        (inv,) = node.saved
        sink(0, grad.transpose(inv))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        return (lambda a: a.transpose(2, 0, 1)), [a]


@register_op("getitem")
class _GetItem:
    @staticmethod
    def forward(ctx, a, *, idx):
        ctx.save(idx, a.data.shape, a.data.dtype)
        return a.data[idx]

    @staticmethod
    def backward(node, grad, sink):
        idx, src_shape, src_dtype = node.saved
        full = np.zeros(src_shape, dtype=src_dtype)
        np.add.at(full, idx, grad)
        sink(0, full)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        return (lambda a: a[1:3, ::2]), [a]


@register_op("squeeze")
class _Squeeze:
    @staticmethod
    def forward(ctx, a, *, axis):
        ctx.save(a.data.shape)
        return a.data.squeeze(axis) if axis is not None else a.data.squeeze()

    @staticmethod
    def backward(node, grad, sink):
        (src_shape,) = node.saved
        sink(0, grad.reshape(src_shape))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((2, 1, 3)), requires_grad=True)
        return (lambda a: a.squeeze(1)), [a]


@register_op("unsqueeze")
class _Unsqueeze:
    @staticmethod
    def forward(ctx, a, *, axis):
        ctx.save(a.data.shape)
        return np.expand_dims(a.data, axis)

    @staticmethod
    def backward(node, grad, sink):
        (src_shape,) = node.saved
        sink(0, grad.reshape(src_shape))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        return (lambda a: a.unsqueeze(1)), [a]


# ---------------------------------------------------------------------------
# Registered ops: reductions
# ---------------------------------------------------------------------------

@register_op("sum")
class _Sum:
    @staticmethod
    def forward(ctx, a, *, axis, keepdims):
        ctx.save(a.data.shape, axis, keepdims)
        return a.data.sum(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(node, grad, sink):
        src_shape, axis, keepdims = node.saved
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        sink(0, np.broadcast_to(g, src_shape))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        return (lambda a: a.sum(axis=1)), [a]


@register_op("mean")
class _Mean:
    @staticmethod
    def forward(ctx, a, *, axis, keepdims):
        src_shape = a.data.shape
        count = a.data.size if axis is None else np.prod(
            [src_shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        ctx.save(src_shape, axis, keepdims, count)
        return a.data.mean(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(node, grad, sink):
        src_shape, axis, keepdims, count = node.saved
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        sink(0, np.broadcast_to(g, src_shape) / count)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        return (lambda a: a.mean(axis=(1, 2))), [a]


@register_op("max")
class _Max:
    @staticmethod
    def forward(ctx, a, *, axis, keepdims):
        out = a.data.max(axis=axis, keepdims=keepdims)
        ctx.save(a.data, out, axis, keepdims)
        return out

    @staticmethod
    def backward(node, grad, sink):
        src, out_data, axis, keepdims = node.saved
        g = grad
        o = out_data
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
            o = np.expand_dims(o, axis)
        mask = (src == o)
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        sink(0, mask * g / counts)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a: a.max(axis=1)), [a]


# ---------------------------------------------------------------------------
# Registered ops: elementwise math
# ---------------------------------------------------------------------------

@register_op("exp")
class _Exp:
    @staticmethod
    def forward(ctx, a):
        out = np.exp(a.data)
        ctx.save(out)
        return out

    @staticmethod
    def backward(node, grad, sink):
        (out,) = node.saved
        sink(0, grad * out)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a: a.exp()), [a]


@register_op("log")
class _Log:
    @staticmethod
    def forward(ctx, a):
        ctx.save(a.data)
        return np.log(a.data)

    @staticmethod
    def backward(node, grad, sink):
        (src,) = node.saved
        sink(0, grad / src)

    @staticmethod
    def sample(rng):
        a = Tensor(np.abs(rng.standard_normal((3, 4))) + 0.5, requires_grad=True)
        return (lambda a: a.log()), [a]


@register_op("sqrt")
class _Sqrt:
    @staticmethod
    def forward(ctx, a):
        out = np.sqrt(a.data)
        ctx.save(out)
        return out

    @staticmethod
    def backward(node, grad, sink):
        (out,) = node.saved
        sink(0, grad / (2.0 * out))

    @staticmethod
    def sample(rng):
        a = Tensor(np.abs(rng.standard_normal((3, 4))) + 0.5, requires_grad=True)
        return (lambda a: a.sqrt()), [a]


@register_op("abs")
class _Abs:
    @staticmethod
    def forward(ctx, a):
        ctx.save(a.data)
        return np.abs(a.data)

    @staticmethod
    def backward(node, grad, sink):
        (src,) = node.saved
        sink(0, grad * np.sign(src))

    @staticmethod
    def sample(rng):
        data = rng.standard_normal((3, 4))
        a = Tensor(np.where(data >= 0, data + 0.5, data - 0.5), requires_grad=True)
        return (lambda a: a.abs()), [a]


@register_op("tanh")
class _Tanh:
    @staticmethod
    def forward(ctx, a):
        out = np.tanh(a.data)
        ctx.save(out)
        return out

    @staticmethod
    def backward(node, grad, sink):
        (out,) = node.saved
        sink(0, grad * (1.0 - out ** 2))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a: a.tanh()), [a]


@register_op("sin")
class _Sin:
    @staticmethod
    def forward(ctx, a):
        ctx.save(a.data)
        return np.sin(a.data)

    @staticmethod
    def backward(node, grad, sink):
        (src,) = node.saved
        sink(0, grad * np.cos(src))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a: a.sin()), [a]


@register_op("cos")
class _Cos:
    @staticmethod
    def forward(ctx, a):
        ctx.save(a.data)
        return np.cos(a.data)

    @staticmethod
    def backward(node, grad, sink):
        (src,) = node.saved
        sink(0, -grad * np.sin(src))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a: a.cos()), [a]


@register_op("clip")
class _Clip:
    @staticmethod
    def forward(ctx, a, *, lo, hi):
        mask = np.ones_like(a.data)
        if lo is not None:
            mask = mask * (a.data >= lo)
        if hi is not None:
            mask = mask * (a.data <= hi)
        ctx.save(mask)
        return np.clip(a.data, lo, hi)

    @staticmethod
    def backward(node, grad, sink):
        (mask,) = node.saved
        sink(0, grad * mask)

    @staticmethod
    def sample(rng):
        a = Tensor(np.array([[-2.0, -0.4, 0.3, 2.2], [1.7, 0.1, -0.6, -3.0]]),
                   requires_grad=True)
        return (lambda a: a.clip(-1.0, 1.0)), [a]


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=_state.default_dtype), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=_state.default_dtype), requires_grad=requires_grad)


def zeros_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros_like(t.data), requires_grad=requires_grad)


def randn(*shape, rng: Optional[np.random.Generator] = None,
          requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(_state.default_dtype),
                  requires_grad=requires_grad)
