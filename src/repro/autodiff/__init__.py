"""From-scratch reverse-mode autodiff substrate (replaces PyTorch)."""

from .graph import (
    GraphProfiler, HookHandle, OpNode, add_op_backward_hook,
    add_op_forward_hook, format_profile, get_op, register_op, registered_ops,
)
from .tensor import (
    Tensor, apply, no_grad, is_grad_enabled, tensor, zeros, ones, zeros_like,
    randn, unbroadcast, DEFAULT_DTYPE, precision, resolve_dtype,
    set_default_dtype, get_default_dtype,
)
from .ops import (
    concat, stack, pad, relu, gelu, sigmoid, softmax, leaky_relu, dropout,
    where, conv2d, conv1d, avg_pool1d, avg_pool2d, max_pool2d,
    mse_loss, mae_loss, masked_mse_loss, unfold2d, fold2d,
    log_softmax, cross_entropy_loss, window_view, instance_std,
)
from .grad_check import check_gradients, check_registered_op, numerical_gradient

__all__ = [
    "Tensor", "apply", "no_grad", "is_grad_enabled", "tensor", "zeros", "ones",
    "zeros_like", "randn", "unbroadcast", "DEFAULT_DTYPE", "precision",
    "resolve_dtype", "set_default_dtype", "get_default_dtype",
    "concat", "stack", "pad", "relu", "gelu", "sigmoid", "softmax",
    "leaky_relu", "dropout", "where", "conv2d", "conv1d", "avg_pool1d",
    "avg_pool2d", "max_pool2d", "mse_loss", "mae_loss", "masked_mse_loss",
    "unfold2d", "fold2d", "window_view", "log_softmax",
    "cross_entropy_loss", "instance_std",
    "check_gradients", "check_registered_op",
    "numerical_gradient",
    "OpNode", "register_op", "get_op", "registered_ops", "HookHandle",
    "add_op_forward_hook", "add_op_backward_hook", "GraphProfiler",
    "format_profile",
]
