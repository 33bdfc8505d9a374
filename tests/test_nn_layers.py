"""Tests for concrete layers: Linear, Conv, norms, dropout, embeddings."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.nn import (
    Conv1d, Conv2d, DataEmbedding, Dropout, GELU, LayerNorm, Linear,
    LinearEmbedding, PositionalEmbedding, ReLU, TokenEmbedding,
    sinusoidal_position_encoding,
)
from repro.nn.inception import InceptionBlock2d


class TestLinear:
    def test_shape(self, rng):
        layer = Linear(4, 7)
        assert layer(Tensor(rng.standard_normal((5, 4)))).shape == (5, 7)

    def test_batched_leading_dims(self, rng):
        layer = Linear(4, 7)
        assert layer(Tensor(rng.standard_normal((2, 3, 4)))).shape == (2, 3, 7)

    def test_no_bias(self, rng):
        layer = Linear(4, 7, bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, np.zeros((1, 7)))

    def test_gradcheck(self, rng):
        layer = Linear(3, 2)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        check_gradients(lambda x: layer(x), [x])
        out = layer(x).sum()
        out.backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None


class TestConvLayers:
    def test_conv1d_same_length(self, rng):
        layer = Conv1d(3, 5, kernel_size=3, padding=1)
        out = layer(Tensor(rng.standard_normal((2, 3, 10))))
        assert out.shape == (2, 5, 10)

    def test_conv2d_shapes(self, rng):
        layer = Conv2d(3, 4, kernel_size=(3, 5), padding=(1, 2))
        out = layer(Tensor(rng.standard_normal((2, 3, 6, 8))))
        assert out.shape == (2, 4, 6, 8)

    def test_conv_params_trainable(self, rng):
        layer = Conv2d(2, 3, 3)
        out = layer(Tensor(rng.standard_normal((1, 2, 5, 5))))
        out.sum().backward()
        assert layer.weight.grad is not None


class TestNorms:
    def test_layernorm_normalises(self, rng):
        layer = LayerNorm(16)
        out = layer(Tensor(rng.standard_normal((4, 16)) * 10 + 3))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_grad(self, rng):
        layer = LayerNorm(5)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        check_gradients(lambda x: layer(x), [x])


class TestActivationsAndDropout:
    @pytest.mark.parametrize("mod,fn", [
        (ReLU(), lambda x: np.maximum(x, 0)),
    ])
    def test_module_matches_numpy(self, rng, mod, fn):
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(mod(Tensor(x)).data, fn(x), rtol=1e-9)

    def test_gelu_zero_at_zero(self):
        assert GELU()(Tensor([0.0])).data[0] == 0.0

    def test_dropout_off_in_eval(self, rng):
        layer = Dropout(0.9)
        layer.eval()
        x = Tensor(rng.standard_normal((5, 5)))
        np.testing.assert_allclose(layer(x).data, x.data)


class TestEmbeddings:
    def test_positional_table_shape_and_range(self):
        table = sinusoidal_position_encoding(20, 8)
        assert table.shape == (20, 8)
        assert np.abs(table).max() <= 1.0

    def test_positional_module_slices(self, rng):
        emb = PositionalEmbedding(8, max_len=100)
        out = emb(Tensor(rng.standard_normal((2, 13, 8))))
        assert out.shape == (1, 13, 8)

    def test_token_embedding_shape(self, rng):
        emb = TokenEmbedding(3, 16)
        out = emb(Tensor(rng.standard_normal((2, 10, 3))))
        assert out.shape == (2, 10, 16)

    def test_data_embedding_shape_and_grad(self, rng):
        emb = DataEmbedding(3, 8, dropout=0.0)
        x = Tensor(rng.standard_normal((2, 10, 3)), requires_grad=True)
        out = emb(x)
        assert out.shape == (2, 10, 8)
        out.sum().backward()
        assert x.grad is not None

    def test_linear_embedding(self, rng):
        emb = LinearEmbedding(3, 8)
        assert emb(Tensor(rng.standard_normal((2, 5, 3)))).shape == (2, 5, 8)


class TestInception:
    def test_requires_at_least_one_kernel(self):
        with pytest.raises(ValueError):
            InceptionBlock2d(2, 2, num_kernels=0)

    def test_preserves_spatial_dims(self, rng):
        block = InceptionBlock2d(3, 5, num_kernels=3)
        out = block(Tensor(rng.standard_normal((2, 3, 7, 9))))
        assert out.shape == (2, 5, 7, 9)

    def test_grad_flows(self, rng):
        block = InceptionBlock2d(2, 2, num_kernels=2)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        block(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in block.parameters())
