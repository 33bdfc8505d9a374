"""FFT spectral engine vs the dense reference, plus precision & cache APIs.

The FFT engine must be *numerically interchangeable* with the dense matmul
form: the zero-padded circular convolution is exact (not approximate), so
the two paths are held to tight float64 tolerances across shapes and
wavelets.  The fused differentiable amplitude op is grad-checked against
finite differences, and the float32 precision mode is smoke-tested through
a full TS3Net train step.
"""

import numpy as np
import pytest

from repro.autodiff import (
    Tensor, check_gradients, get_default_dtype, mse_loss, precision,
)
from repro.spectral import CWTOperator
from repro.spectral.engine import (
    DenseSpectralEngine, FFTSpectralEngine, _next_fast_len, make_engine,
)

COMBOS = [
    (32, 8, "cgau1"),
    (48, 16, "cgau2"),
    (64, 12, "morlet"),
    (96, 100, "cgau1"),   # the paper-scale shape the benchmark times
]


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Isolate the operator LRU so tests cannot leak state into each other."""
    CWTOperator.clear_cache()
    CWTOperator.set_cache_limit(8)
    yield
    CWTOperator.clear_cache()
    CWTOperator.set_cache_limit(8)


def _pair(seq_len, num_scales, wavelet):
    fft = CWTOperator.cached(seq_len, num_scales, wavelet, engine="fft")
    dense = CWTOperator.cached(seq_len, num_scales, wavelet, engine="dense")
    return fft, dense


class TestFFTDenseEquivalence:
    @pytest.mark.parametrize("seq_len,num_scales,wavelet", COMBOS)
    def test_transform_array(self, rng, seq_len, num_scales, wavelet):
        fft, dense = _pair(seq_len, num_scales, wavelet)
        x = rng.standard_normal((3, seq_len))
        np.testing.assert_allclose(fft.transform_array(x),
                                   dense.transform_array(x),
                                   rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seq_len,num_scales,wavelet", COMBOS)
    def test_amplitude_array(self, rng, seq_len, num_scales, wavelet):
        fft, dense = _pair(seq_len, num_scales, wavelet)
        x = rng.standard_normal((2, 3, seq_len))     # extra batch dims
        np.testing.assert_allclose(fft.amplitude_array(x),
                                   dense.amplitude_array(x),
                                   rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seq_len,num_scales,wavelet", COMBOS)
    def test_rotated_real_and_inverse(self, rng, seq_len, num_scales, wavelet):
        fft, dense = _pair(seq_len, num_scales, wavelet)
        x = rng.standard_normal((4, seq_len))
        np.testing.assert_allclose(fft.rotated_real_array(x),
                                   dense.rotated_real_array(x),
                                   rtol=1e-9, atol=1e-12)
        # Calibration runs through each operator's own engine, so matching
        # inverse weights means the whole fit pipeline agrees too.
        np.testing.assert_allclose(fft._iwt_weights, dense._iwt_weights,
                                   rtol=1e-9, atol=1e-12)
        coeffs = fft.rotated_real_array(x)
        np.testing.assert_allclose(fft.inverse_array(coeffs),
                                   dense.inverse_array(coeffs),
                                   rtol=1e-9, atol=1e-12)

    def test_adjoint_matches_dense(self, rng):
        fft = make_engine("fft", 48, CWTOperator.cached(48, 10).scales,
                          CWTOperator.cached(48, 10).wavelet)
        dense = make_engine("dense", 48, CWTOperator.cached(48, 10).scales,
                            CWTOperator.cached(48, 10).wavelet)
        g = (rng.standard_normal((3, 10, 48))
             + 1j * rng.standard_normal((3, 10, 48)))
        np.testing.assert_allclose(fft.adjoint(g), dense.adjoint(g),
                                   rtol=1e-9, atol=1e-12)

    def test_adjoint_is_true_adjoint(self, rng):
        """<L x, g> == <x, L^H g> under the real inner product."""
        op = CWTOperator.cached(32, 6, engine="fft")
        x = rng.standard_normal(32)
        g = rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32))
        lhs = np.sum((op.transform_array(x) * np.conj(g)).real)
        rhs = np.sum(x * op._engine.adjoint(g))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_fft_bank_much_smaller_than_dense(self):
        fft, dense = _pair(96, 100, "cgau1")
        assert fft.nbytes * 10 < dense.nbytes

    def test_scratch_reuse_does_not_alias_results(self, rng):
        op = CWTOperator.cached(48, 8, engine="fft")
        a = op.transform_array(rng.standard_normal((2, 48)))
        snapshot = a.copy()
        op.transform_array(rng.standard_normal((2, 48)))
        np.testing.assert_array_equal(a, snapshot)


class TestFFTLength:
    def test_next_fast_len_matches_scipy(self):
        # scipy is only the reference here.  The FFT length fixes every
        # float64 output bit, so matching it keeps the goldens stable.
        from scipy import fft as scipy_fft
        got = [_next_fast_len(n) for n in range(1, 4097)]
        want = [scipy_fft.next_fast_len(n) for n in range(1, 4097)]
        assert got == want


class TestFusedAmplitudeGrad:
    def test_grad_check_fft(self, rng):
        op = CWTOperator.cached(24, 6, engine="fft")
        x = Tensor(rng.standard_normal((2, 24)), requires_grad=True)
        check_gradients(lambda t: op.amplitude(t), [x])

    def test_grad_check_dense(self, rng):
        op = CWTOperator.cached(24, 6, engine="dense")
        x = Tensor(rng.standard_normal((2, 24)), requires_grad=True)
        check_gradients(lambda t: op.amplitude(t), [x])

    def test_fft_grad_matches_dense_grad(self, rng):
        data = rng.standard_normal((3, 40))
        grads = []
        for engine in ("fft", "dense"):
            op = CWTOperator.cached(40, 12, engine=engine)
            x = Tensor(data.copy(), requires_grad=True)
            (op.amplitude(x) ** 2).sum().backward()
            grads.append(x.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-8, atol=1e-10)

    def test_amplitude_tape_is_single_node(self, rng):
        op = CWTOperator.cached(24, 6, engine="fft")
        x = Tensor(rng.standard_normal((2, 24)), requires_grad=True)
        out = op.amplitude(x)
        assert out._node is not None
        assert out._node.op == "cwt_amplitude"
        assert out._node.parents == (x,)   # fused: one hop back to the input


class TestPrecisionMode:
    def test_float32_arrays_stay_float32(self, rng):
        op = CWTOperator.cached(48, 8, engine="fft")
        x32 = rng.standard_normal((2, 48)).astype(np.float32)
        amp = op.amplitude_array(x32)
        assert amp.dtype == np.float32
        ref = op.amplitude_array(x32.astype(np.float64))
        np.testing.assert_allclose(amp, ref, rtol=1e-4, atol=1e-4)

    def test_precision_context_restores_default(self):
        before = get_default_dtype()
        with precision("float32"):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0]).data.dtype == np.float32
        assert get_default_dtype() == before

    def test_ts3net_float32_train_step(self, rng):
        from repro.baselines import build_model
        model = build_model("TS3Net", seq_len=24, pred_len=12, c_in=3,
                            preset="tiny")
        model.to("float32")
        x = rng.standard_normal((2, 24, 3)).astype(np.float32)
        y = rng.standard_normal((2, 12, 3)).astype(np.float32)
        with precision("float32"):
            model.zero_grad()
            pred = model(Tensor(x))
            assert pred.data.dtype == np.float32
            mse_loss(pred, y).backward()
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float32, name
            assert p.grad is None or p.grad.dtype == np.float32, name


class TestOperatorLRUCache:
    def test_hits_misses_and_size(self):
        CWTOperator.cached(24, 4)
        CWTOperator.cached(24, 4)
        info = CWTOperator.cache_info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        assert info.maxsize == 8
        assert info.bank_bytes > 0

    def test_eviction_is_least_recently_used(self):
        CWTOperator.set_cache_limit(2)
        a = CWTOperator.cached(24, 4)
        CWTOperator.cached(24, 5)
        CWTOperator.cached(24, 4)          # refresh a
        CWTOperator.cached(24, 6)          # evicts (24, 5)
        assert CWTOperator.cached(24, 4) is a          # still cached
        assert CWTOperator.cache_info().size == 2

    def test_shrinking_limit_evicts(self):
        for lam in (4, 5, 6):
            CWTOperator.cached(24, lam)
        CWTOperator.set_cache_limit(1)
        info = CWTOperator.cache_info()
        assert info.size == 1 and info.maxsize == 1
        with pytest.raises(ValueError):
            CWTOperator.set_cache_limit(0)

    def test_clear_resets_counters(self):
        CWTOperator.cached(24, 4)
        CWTOperator.clear_cache()
        info = CWTOperator.cache_info()
        assert (info.hits, info.misses, info.size, info.bank_bytes) == (0, 0, 0, 0)

    def test_engine_distinguishes_cache_entries(self):
        f = CWTOperator.cached(24, 4, engine="fft")
        d = CWTOperator.cached(24, 4, engine="dense")
        assert f is not d
        assert isinstance(f._engine, FFTSpectralEngine)
        assert isinstance(d._engine, DenseSpectralEngine)

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown spectral engine"):
            CWTOperator(24, 4, engine="toeplitz")
