"""Core layers: Linear, Conv1d/2d, normalisation, dropout, activations.

These mirror the PyTorch layers the original TS3Net implementation uses,
running on the :mod:`repro.autodiff` substrate.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..autodiff import Tensor, ops
from ..autodiff.ops import conv1d as _conv1d
from ..autodiff.ops import conv2d as _conv2d
from ..utils import get_rng
from . import init
from .module import Module, Parameter


class Linear(Module):
    """Affine map on the last axis: ``y = x @ W + b`` with W of (in, out)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features)))
        if bias:
            self.bias = Parameter(init.bias_uniform((out_features,), in_features))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self):
        return f"Linear({self.in_features}, {self.out_features})"


class Conv1d(Module):
    """1-D convolution over (N, C, L) tensors."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True):
        super().__init__()
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape))
        fan_in = in_channels * kernel_size
        self.bias = Parameter(init.bias_uniform((out_channels,), fan_in)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return _conv1d(x, self.weight, self.bias, stride=self.stride,
                       padding=self.padding)


class Conv2d(Module):
    """2-D convolution over (N, C, H, W) tensors."""

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: Union[int, Tuple[int, int]],
                 stride: int = 1, padding: Union[int, Tuple[int, int]] = 0,
                 bias: bool = True):
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, *kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape))
        fan_in = in_channels * kernel_size[0] * kernel_size[1]
        self.bias = Parameter(init.bias_uniform((out_channels,), fan_in)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return _conv2d(x, self.weight, self.bias, stride=self.stride,
                       padding=self.padding)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.weight + self.bias


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, p: float = 0.1):
        super().__init__()
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.p, self.training, rng=get_rng())


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.gelu(x)
