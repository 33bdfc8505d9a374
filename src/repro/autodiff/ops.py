"""Differentiable functional operations built on :class:`repro.autodiff.Tensor`.

These are the ops that do not fit naturally as ``Tensor`` methods: joining
(concat/stack), padding, convolution (im2col), pooling, and the classic
neural-network nonlinearities.  Each one is a named entry in the op registry
(:mod:`repro.autodiff.graph`) — the public functions below are thin wrappers
around :func:`repro.autodiff.tensor.apply` — so they show up in profiles and
are swept by the registry-wide gradient checks.  Helpers like ``conv1d`` and
the losses are compositions of registered ops and carry no backward of their
own.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .graph import register_op
from .tensor import Tensor, apply

__all__ = [
    "concat", "stack", "pad", "relu", "gelu", "sigmoid", "softmax",
    "leaky_relu", "dropout", "instance_std", "where", "conv2d", "conv1d",
    "avg_pool1d",
    "avg_pool2d", "max_pool2d", "mse_loss", "mae_loss", "masked_mse_loss",
    "log_softmax", "cross_entropy_loss",
    "unfold2d", "fold2d", "window_view",
]


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ``np.einsum(..., optimize=True)`` recomputes the contraction path and
# re-validates it on every call — pure Python overhead that dominates small
# convolutions.  The contraction list depends only on (subscripts, operand
# shapes) and path search is deterministic, so caching it once and replaying
# numpy's own execution loop (the same ``bmm_einsum`` / ``c_einsum`` helpers
# ``np.einsum`` dispatches to) is bitwise identical to ``optimize=True``.
_EINSUM_PLANS: dict = {}

try:  # numpy internals; fall back to the public API if they move
    from numpy._core.einsumfunc import bmm_einsum as _bmm_einsum
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # pragma: no cover - depends on numpy version
    _bmm_einsum = None
    _c_einsum = None


def cached_einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    key = (subscripts, tuple(op.shape for op in operands))
    plan = _EINSUM_PLANS.get(key)
    if plan is None:
        if len(_EINSUM_PLANS) >= 256:  # unbounded shapes must not leak
            _EINSUM_PLANS.clear()
        if _bmm_einsum is not None:
            _, contractions = np.einsum_path(
                subscripts, *operands, optimize=True, einsum_call=True)
            plan = tuple(
                (c[0], next(x for x in c if isinstance(x, str)))
                for c in contractions)
        else:
            plan = np.einsum_path(subscripts, *operands, optimize=True)[0]
        _EINSUM_PLANS[key] = plan
    if not isinstance(plan, tuple):  # public-API fallback: a path list
        return np.einsum(subscripts, *operands, optimize=plan)
    ops = list(operands)
    for inds, estr in plan:
        tmp = [ops.pop(x) for x in inds]
        ops.append(_bmm_einsum(estr, *tmp) if len(tmp) == 2
                   else _c_einsum(estr, *tmp))
    return ops[0]


# ---------------------------------------------------------------------------
# Joining and padding
# ---------------------------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable ``np.concatenate``)."""
    tensors = [_as_tensor(t) for t in tensors]
    return apply("concat", *tensors, axis=axis)


@register_op("concat")
class _Concat:
    @staticmethod
    def forward(ctx, *tensors, axis):
        sizes = [t.data.shape[axis] for t in tensors]
        ctx.save(axis, np.cumsum([0] + sizes))
        return np.concatenate([t.data for t in tensors], axis=axis)

    @staticmethod
    def backward(node, grad, sink):
        axis, offsets = node.saved
        for i, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            sink(i, grad[tuple(index)])

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a, b: concat([a, b], axis=1)), [a, b]


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [_as_tensor(t) for t in tensors]
    return apply("stack", *tensors, axis=axis)


@register_op("stack")
class _Stack:
    @staticmethod
    def forward(ctx, *tensors, axis):
        ctx.save(axis)
        return np.stack([t.data for t in tensors], axis=axis)

    @staticmethod
    def backward(node, grad, sink):
        (axis,) = node.saved
        pieces = np.moveaxis(grad, axis, 0)
        for i, piece in enumerate(pieces):
            sink(i, piece)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        return (lambda a, b: stack([a, b], axis=1)), [a, b]


def _constant_pad(arr: np.ndarray, pad_width, value=0,
                  inner: Optional[tuple] = None) -> np.ndarray:
    """Constant-mode ``np.pad`` as allocate + interior copy.

    Bitwise identical to ``np.pad(..., mode="constant")`` (constant fill,
    then the source block verbatim) without np.pad's per-call Python
    argument normalisation.
    """
    if inner is None:
        inner = tuple(slice(p[0], p[0] + s)
                      for p, s in zip(pad_width, arr.shape))
    out_shape = tuple(s + p[0] + p[1] for s, p in zip(arr.shape, pad_width))
    if value == 0:
        out = np.zeros(out_shape, dtype=arr.dtype)
    else:
        out = np.full(out_shape, value, dtype=arr.dtype)
    out[inner] = arr
    return out


def pad(x: Tensor, pad_width: Sequence[Tuple[int, int]],
        mode: str = "constant", value: float = 0.0) -> Tensor:
    """Differentiable ``np.pad`` for constant / edge / reflect modes."""
    if mode not in ("constant", "edge", "reflect"):
        raise ValueError(f"unsupported pad mode: {mode}")
    return apply("pad", _as_tensor(x), pad_width=tuple(pad_width), mode=mode,
                 value=value)


@register_op("pad")
class _Pad:
    @staticmethod
    def forward(ctx, x, *, pad_width, mode, value):
        src_shape = x.data.shape
        inner = tuple(slice(p[0], p[0] + s) for p, s in zip(pad_width, src_shape))
        if mode == "constant" and len(pad_width) == x.data.ndim:
            out = _constant_pad(x.data, pad_width, value, inner)
        elif mode == "constant":
            out = np.pad(x.data, pad_width, mode="constant", constant_values=value)
        else:
            out = np.pad(x.data, pad_width, mode=mode)
        ctx.save(pad_width, mode, inner, src_shape)
        return out

    @staticmethod
    def backward(node, grad, sink):
        pad_width, mode, inner, src_shape = node.saved
        if mode == "constant":
            sink(0, grad[inner])
            return
        # For replicate/reflect padding the padded entries alias interior
        # entries; scatter their gradients back by accumulating into the
        # interior along each axis.
        g = grad.copy()
        if mode == "edge":
            for axis, (lo, hi) in enumerate(pad_width):
                if lo:
                    index = [slice(None)] * g.ndim
                    index[axis] = slice(0, lo)
                    edge = [slice(None)] * g.ndim
                    edge[axis] = slice(lo, lo + 1)
                    g[tuple(edge)] += g[tuple(index)].sum(axis=axis, keepdims=True)
                if hi:
                    index = [slice(None)] * g.ndim
                    index[axis] = slice(g.shape[axis] - hi, g.shape[axis])
                    edge = [slice(None)] * g.ndim
                    edge[axis] = slice(g.shape[axis] - hi - 1, g.shape[axis] - hi)
                    g[tuple(edge)] += g[tuple(index)].sum(axis=axis, keepdims=True)
            sink(0, g[inner])
            return
        # reflect
        for axis, (lo, hi) in enumerate(pad_width):
            if lo:
                for k in range(lo):
                    src_i = [slice(None)] * g.ndim
                    src_i[axis] = slice(k, k + 1)
                    dst_i = [slice(None)] * g.ndim
                    dst_i[axis] = slice(2 * lo - k, 2 * lo - k + 1)
                    g[tuple(dst_i)] += g[tuple(src_i)]
            if hi:
                end = g.shape[axis]
                for k in range(hi):
                    src_i = [slice(None)] * g.ndim
                    src_i[axis] = slice(end - 1 - k, end - k)
                    dst_i = [slice(None)] * g.ndim
                    pos = end - 2 * hi + k - 1 + 0  # mirror position
                    dst_i[axis] = slice(pos, pos + 1)
                    g[tuple(dst_i)] += g[tuple(src_i)]
        sink(0, g[inner])

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        return (lambda a: pad(a, ((2, 1), (0, 2)), mode="reflect")), [a]


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select: ``condition`` is a detached boolean array."""
    cond = np.asarray(condition, dtype=bool)
    return apply("where", _as_tensor(a), _as_tensor(b), cond=cond)


@register_op("where")
class _Where:
    @staticmethod
    def forward(ctx, a, b, *, cond):
        ctx.save(cond)
        return np.where(cond, a.data, b.data)

    @staticmethod
    def backward(node, grad, sink):
        (cond,) = node.saved
        sink(0, np.where(cond, grad, 0.0))
        sink(1, np.where(cond, 0.0, grad))

    @staticmethod
    def sample(rng):
        cond = rng.random((3, 4)) > 0.5
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a, b: where(cond, a, b)), [a, b]


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    return apply("relu", _as_tensor(x))


@register_op("relu")
class _Relu:
    @staticmethod
    def forward(ctx, x):
        mask = x.data > 0
        ctx.save(mask)
        return x.data * mask

    @staticmethod
    def backward(node, grad, sink):
        (mask,) = node.saved
        sink(0, grad * mask)

    @staticmethod
    def sample(rng):
        data = rng.standard_normal((3, 4))
        a = Tensor(np.where(data >= 0, data + 0.5, data - 0.5), requires_grad=True)
        return relu, [a]


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return apply("leaky_relu", _as_tensor(x), negative_slope=negative_slope)


@register_op("leaky_relu")
class _LeakyRelu:
    @staticmethod
    def forward(ctx, x, *, negative_slope):
        mask = x.data > 0
        ctx.save(mask, negative_slope)
        return np.where(mask, x.data, negative_slope * x.data)

    @staticmethod
    def backward(node, grad, sink):
        mask, negative_slope = node.saved
        sink(0, np.where(mask, grad, negative_slope * grad))

    @staticmethod
    def sample(rng):
        data = rng.standard_normal((3, 4))
        a = Tensor(np.where(data >= 0, data + 0.5, data - 0.5), requires_grad=True)
        return (lambda a: leaky_relu(a, 0.1)), [a]


_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (the common production form)."""
    return apply("gelu", _as_tensor(x))


@register_op("gelu")
class _Gelu:
    @staticmethod
    def forward(ctx, x):
        u = _SQRT_2_OVER_PI * (x.data + 0.044715 * x.data ** 3)
        t = np.tanh(u)
        ctx.save(x.data, t)
        return 0.5 * x.data * (1.0 + t)

    @staticmethod
    def backward(node, grad, sink):
        src, t = node.saved
        du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * src ** 2)
        local = 0.5 * (1.0 + t) + 0.5 * src * (1.0 - t ** 2) * du
        sink(0, grad * local)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return gelu, [a]


def sigmoid(x: Tensor) -> Tensor:
    return apply("sigmoid", _as_tensor(x))


@register_op("sigmoid")
class _Sigmoid:
    @staticmethod
    def forward(ctx, x):
        out = 1.0 / (1.0 + np.exp(-x.data))
        ctx.save(out)
        return out

    @staticmethod
    def backward(node, grad, sink):
        (out,) = node.saved
        sink(0, grad * out * (1.0 - out))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return sigmoid, [a]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply("softmax", _as_tensor(x), axis=axis)


@register_op("softmax")
class _Softmax:
    @staticmethod
    def forward(ctx, x, *, axis):
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)
        ctx.save(out, axis)
        return out

    @staticmethod
    def backward(node, grad, sink):
        out, axis = node.saved
        dot = (grad * out).sum(axis=axis, keepdims=True)
        sink(0, out * (grad - dot))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a: softmax(a, axis=-1)), [a]


def instance_std(x: Tensor, axis: int = 1, eps: float = 1e-5) -> Tensor:
    """Per-instance standard deviation ``sqrt(var(x, axis) + eps)``.

    The instance-normalisation statistic of the TimesNet protocol as a
    single tape node, so models compute it *on-tape* (usually under
    ``no_grad()``) from each batch.  The forward is byte-for-byte
    ``np.sqrt(np.var(x, axis, keepdims=True) + eps)``.
    """
    return apply("instance_std", _as_tensor(x), axis=axis, eps=eps)


@register_op("instance_std")
class _InstanceStd:
    @staticmethod
    def forward(ctx, x, *, axis, eps):
        out = np.sqrt(np.var(x.data, axis=axis, keepdims=True) + eps)
        ctx.save(x.data, out, axis)
        return out

    @staticmethod
    def backward(node, grad, sink):
        src, out, axis = node.saved
        # d std / d x_i = (x_i - mu) / (N * std); the mean's dependence on
        # x_i cancels inside var's gradient.
        mu = src.mean(axis=axis, keepdims=True)
        count = src.shape[axis]
        sink(0, grad * (src - mu) / (count * out))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 6, 2)), requires_grad=True)
        return (lambda a: instance_std(a, axis=1, eps=1e-5)), [a]


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    return apply("dropout", _as_tensor(x), p=p, rng=rng)


@register_op("dropout")
class _Dropout:
    @staticmethod
    def forward(ctx, x, *, p, rng):
        keep = 1.0 - p
        mask = ((rng.random(x.data.shape) < keep) / keep).astype(x.data.dtype,
                                                                 copy=False)
        ctx.save(mask)
        return x.data * mask

    @staticmethod
    def backward(node, grad, sink):
        (mask,) = node.saved
        sink(0, grad * mask)

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        # Re-seed per call so finite differencing sees the same mask.
        return (lambda a: dropout(a, 0.4, True, rng=np.random.default_rng(7))), [a]


# ---------------------------------------------------------------------------
# Convolution via im2col
# ---------------------------------------------------------------------------

def window_view(x: np.ndarray, kh: int, kw: int, stride: int = 1) -> np.ndarray:
    """Zero-copy sliding-window view: (N, C, H, W) -> (N, C, oh, ow, kh, kw)."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )


def unfold2d(x: np.ndarray, kh: int, kw: int, stride: int = 1) -> np.ndarray:
    """im2col: (N, C, H, W) -> (N, C*kh*kw, out_h*out_w) using stride tricks."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    windows = window_view(x, kh, kw, stride)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols)


def fold2d(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
           kh: int, kw: int, stride: int = 1) -> np.ndarray:
    """col2im: scatter-add the unfolded columns back to (N, C, H, W)."""
    n, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += cols[:, :, i, j]
    return x


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: Union[int, Tuple[int, int]] = 0) -> Tensor:
    """2-D cross-correlation, NCHW layout, weight of shape (O, C, kh, kw)."""
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if isinstance(padding, int):
        padding = (padding, padding)
    ph, pw = padding
    if ph or pw:
        x = pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    if x.data.shape[1] != weight.data.shape[1]:
        raise ValueError(f"conv2d channel mismatch: input {x.data.shape[1]}, "
                         f"weight {weight.data.shape[1]}")
    if bias is None:
        return apply("conv2d", x, weight, stride=stride)
    return apply("conv2d", x, weight, bias, stride=stride)


@register_op("conv2d")
class _Conv2d:
    @staticmethod
    def forward(ctx, x, weight, bias=None, *, stride):
        n, c, h, w = x.data.shape
        o, c_in, kh, kw = weight.data.shape
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        windows = window_view(x.data, kh, kw, stride)  # (N, C, oh, ow, kh, kw) view
        out = cached_einsum("nchwkl,ockl->nohw", windows, weight.data)
        if bias is not None:
            out = out + bias.data.reshape(1, o, 1, 1)
        ctx.save(windows, weight.data, (n, c, h, w), (o, kh, kw, out_h, out_w),
                 stride, bias is not None)
        return out

    @staticmethod
    def backward(node, grad, sink):
        windows, w_data, x_shape, w_geom, stride, has_bias = node.saved
        n, c, h, w = x_shape
        o, kh, kw, out_h, out_w = w_geom
        needs = node.needs
        if needs is None or needs[1]:
            sink(1, cached_einsum("nohw,nchwkl->ockl", grad, windows))
        if has_bias and (needs is None or needs[2]):
            sink(2, grad.sum(axis=(0, 2, 3)))
        if needs is not None and not needs[0]:
            return
        # Input gradient as a transposed convolution: dilate the output
        # gradient by the stride, pad by kernel-1, and correlate with the
        # spatially flipped kernel — one strided-view einsum, no Python
        # scatter loop and no materialised (N, C, oh, ow, kh, kw) buffer.
        if stride == 1:
            dilated = grad
        else:
            dilated = np.zeros((n, o, (out_h - 1) * stride + 1,
                                (out_w - 1) * stride + 1), dtype=grad.dtype)
            dilated[:, :, ::stride, ::stride] = grad
        padded = _constant_pad(dilated, ((0, 0), (0, 0), (kh - 1, kh - 1),
                                         (kw - 1, kw - 1)))
        flipped = w_data[:, :, ::-1, ::-1]
        grad_x = cached_einsum("nohwkl,ockl->nchw", window_view(padded, kh, kw),
                               flipped)
        if grad_x.shape[2:] != (h, w):
            # Rows/cols past the last window (when (h-kh) % stride != 0)
            # never reached the output, so their gradient is zero.
            full = np.zeros((n, c, h, w), dtype=grad.dtype)
            full[:, :, :grad_x.shape[2], :grad_x.shape[3]] = grad_x
            grad_x = full
        sink(0, grad_x)

    @staticmethod
    def sample(rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        return (lambda x, w, b: conv2d(x, w, bias=b, stride=2, padding=1)), [x, w, b]


def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation, NCL layout, weight of shape (O, C, k)."""
    x4 = x.unsqueeze(2)                                  # (N, C, 1, L)
    w4 = weight.unsqueeze(2)                             # (O, C, 1, k)
    out = conv2d(x4, w4, bias=bias, stride=stride, padding=(0, padding))
    return out.squeeze(2)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def avg_pool1d(x: Tensor, kernel_size: int, stride: Optional[int] = None,
               padding: int = 0, pad_mode: str = "edge") -> Tensor:
    """Average pooling over the last axis of a (..., L) tensor.

    The paper's trend decomposition uses average pooling with replicate
    padding so the series length is preserved; ``pad_mode='edge'`` gives
    exactly that behaviour.
    """
    x = _as_tensor(x)
    stride = stride or kernel_size
    if padding:
        widths = [(0, 0)] * (x.data.ndim - 1) + [(padding, padding)]
        x = pad(x, widths, mode=pad_mode)
    lead = x.data.shape[:-1]
    length = x.data.shape[-1]
    out_len = (length - kernel_size) // stride + 1
    flat = x.reshape(int(np.prod(lead)) if lead else 1, 1, 1, length)
    # _coerce pins the kernel to x's dtype (Tensor() would re-coerce to the
    # ambient default dtype and silently promote float32 activations).
    w = x._coerce(np.full((1, 1, 1, kernel_size), 1.0 / kernel_size))
    out = conv2d(flat, w, stride=stride)
    return out.reshape(*lead, out_len)


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling on NCHW tensors with a square kernel."""
    x = _as_tensor(x)
    stride = stride or kernel_size
    n, c, h, w = x.data.shape
    weight = np.zeros((c, c, kernel_size, kernel_size), dtype=x.data.dtype)
    for ch in range(c):
        weight[ch, ch] = 1.0 / (kernel_size * kernel_size)
    return conv2d(x, x._coerce(weight), stride=stride)


def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling on NCHW tensors."""
    x = _as_tensor(x)
    stride = stride or kernel_size
    return apply("max_pool2d", x, kernel_size=kernel_size,
                 stride=stride)


@register_op("max_pool2d")
class _MaxPool2d:
    @staticmethod
    def forward(ctx, x, *, kernel_size, stride):
        n, c, h, w = x.data.shape
        kh = kw = kernel_size
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        cols = unfold2d(x.data, kh, kw, stride).reshape(n, c, kh * kw, out_h * out_w)
        arg = cols.argmax(axis=2)                                    # (N, C, L)
        out = np.take_along_axis(cols, arg[:, :, None, :], axis=2)[:, :, 0, :]
        ctx.save(arg, (n, c, h, w), (kh, kw, out_h, out_w), stride)
        return out.reshape(n, c, out_h, out_w)

    @staticmethod
    def backward(node, grad, sink):
        arg, x_shape, geom, stride = node.saved
        n, c, h, w = x_shape
        kh, kw, out_h, out_w = geom
        g = grad.reshape(n, c, out_h * out_w)
        grad_cols = np.zeros((n, c, kh * kw, out_h * out_w), dtype=grad.dtype)
        np.put_along_axis(grad_cols, arg[:, :, None, :], g[:, :, None, :], axis=2)
        grad_cols = grad_cols.reshape(n, c * kh * kw, out_h * out_w)
        sink(0, fold2d(grad_cols, x_shape, kh, kw, stride))

    @staticmethod
    def sample(rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        return (lambda x: max_pool2d(x, 2)), [x]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    return apply("log_softmax", _as_tensor(x), axis=axis)


@register_op("log_softmax")
class _LogSoftmax:
    @staticmethod
    def forward(ctx, x, *, axis):
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_z
        ctx.save(np.exp(out), axis)
        return out

    @staticmethod
    def backward(node, grad, sink):
        soft, axis = node.saved
        sink(0, grad - soft * grad.sum(axis=axis, keepdims=True))

    @staticmethod
    def sample(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return (lambda a: log_softmax(a, axis=-1)), [a]


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy between (B, K) logits and (B,) integer labels."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"expected (B, K) logits, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match "
                         f"batch size {logits.shape[0]}")
    log_probs = log_softmax(logits, axis=-1)
    batch = np.arange(len(labels))
    picked = log_probs[batch, labels]
    return -picked.mean()


def mse_loss(pred: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error (the paper's training loss)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target.detach()
    return (diff * diff).mean()


def mae_loss(pred: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean absolute error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    return (pred - target.detach()).abs().mean()


def masked_mse_loss(pred: Tensor, target: Union[Tensor, np.ndarray],
                    mask: np.ndarray) -> Tensor:
    """MSE restricted to positions where ``mask`` is True (imputation loss)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    mask = np.asarray(mask, dtype=bool)
    count = max(int(mask.sum()), 1)
    diff = (pred - target.detach()) * Tensor(mask.astype(pred.dtype))
    return (diff * diff).sum() / count
