"""Inception-style 2-D convolution backbone.

TS3Net processes each 2-D temporal-frequency tensor with "the inception
block, one of the most well-acknowledged vision backbones involving a
multi-scale 2D kernel" (Sec. III-C). This is the parameter-efficient
``Inception_Block_V1`` shape used by the TimesNet code family: several
parallel square convolutions of increasing kernel size whose outputs are
averaged.
"""

from __future__ import annotations

from ..autodiff import Tensor
from .layers import Conv2d
from .module import Module, ModuleList


class InceptionBlock2d(Module):
    """Parallel multi-scale 2-D convolutions, averaged.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of the NCHW input/output.
    num_kernels:
        Number of parallel branches; branch ``i`` uses a ``(2i+1)``-sized
        square kernel with "same" padding.
    """

    def __init__(self, in_channels: int, out_channels: int, num_kernels: int = 3):
        super().__init__()
        if num_kernels < 1:
            raise ValueError("num_kernels must be >= 1")
        self.branches = ModuleList([
            Conv2d(in_channels, out_channels, kernel_size=2 * i + 1, padding=i)
            for i in range(num_kernels)
        ])

    def forward(self, x: Tensor) -> Tensor:
        outs = [branch(x) for branch in self.branches]
        total = outs[0]
        for out in outs[1:]:
            total = total + out
        return total / float(len(outs))

