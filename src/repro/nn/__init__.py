"""Neural-network layer library on the autodiff substrate."""

from .module import Module, ModuleList, Parameter, Sequential
from .layers import Conv1d, Conv2d, Dropout, GELU, LayerNorm, Linear, ReLU
from .embedding import (
    DataEmbedding, LinearEmbedding, PositionalEmbedding, TokenEmbedding,
    sinusoidal_position_encoding,
)
from .attention import (
    AutoCorrelation, MultiHeadAttention, ProbSparseAttention,
    scaled_dot_attention,
)
from .inception import InceptionBlock2d
from .transformer import EncoderLayer, FeedForward, TransformerEncoder
from .serialization import (
    load_checkpoint, peek_metadata, read_checkpoint, save_checkpoint,
    validate_checkpoint_metadata,
)
from . import init

__all__ = [
    "Module", "ModuleList", "Parameter", "Sequential",
    "Conv1d", "Conv2d", "Dropout", "GELU", "LayerNorm", "Linear", "ReLU",
    "DataEmbedding", "LinearEmbedding", "PositionalEmbedding",
    "TokenEmbedding", "sinusoidal_position_encoding",
    "AutoCorrelation", "MultiHeadAttention", "ProbSparseAttention",
    "scaled_dot_attention", "InceptionBlock2d",
    "EncoderLayer", "FeedForward", "TransformerEncoder", "init",
    "load_checkpoint", "peek_metadata", "read_checkpoint",
    "save_checkpoint",
    "validate_checkpoint_metadata",
]
