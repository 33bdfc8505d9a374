"""Spectral engines: the linear maps behind the CWT, dense and FFT-based.

The CWT of Eq. 7 at scale ``s_i`` is a Toeplitz convolution::

    C[i, b] = sum_t x[t] * h_i[t - b],   h_i[d] = conj(psi(d / s_i)) / sqrt(s_i)

The seed implementation materialised ``h_i[t - b]`` as a dense
``(T, lambda * T)`` matrix and ran one big matmul — ``O(lambda * T^2)`` work
and ``O(lambda * T^2)`` resident memory per operator.  Because each scale is
a *convolution*, the whole transform diagonalises under the DFT: with
``g_i[m] = h_i[-m]`` and any circular length ``N >= 2T - 1``,

    C[i] = IFFT( FFT(pad_N(x)) * G_i )[:T],    G_i = FFT(wrap_N(g_i))

which is ``O(lambda * T * log T)`` work and stores only the ``(lambda, N)``
wavelet spectra ``G_i``.

The adjoint (needed for backprop through ``Amp(WT(x))``) of an FFT
convolution is another FFT convolution with the conjugated spectra.  For the
stacked map ``L x = {C_i}`` acting on a *real* signal, the cotangent
``gbar = gbar_real + 1j * gbar_imag`` pulls back as::

    grad_x = Re( IFFT( sum_i conj(G_i) * FFT(pad_N(gbar_i)) )[:T] )

— the scale sum is taken in the frequency domain, so the backward pass costs
one extra FFT + one IFFT regardless of ``lambda``.

Both engines expose the same three methods (``transform``, ``adjoint``,
``nbytes``) so :class:`repro.spectral.cwt.CWTOperator` can swap them freely;
the dense engine is retained as the exact reference the FFT path is tested
against (``tests/test_spectral_engine.py``).

Precision: master filter data is kept in ``complex128``; when the input is
``float32`` the engine computes in ``complex64`` using lazily cached
single-precision spectra (``numpy.fft`` keeps single precision from NumPy
2.0 on).
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from .wavelets import Wavelet


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer ``>= n``: a length pocketfft factors fast.

    Equal to ``scipy.fft.next_fast_len(n)`` (the tests check it): the FFT
    length fixes every float64 output bit, so the bitwise goldens hold.
    """
    m = max(int(n), 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _working_dtypes(x: np.ndarray):
    """Map an input array to its (real, complex) working dtypes."""
    if x.dtype == np.float32:
        return np.float32, np.complex64
    return np.float64, np.complex128


class SpectralEngine:
    """Common state of a CWT linear map for fixed ``(T, scales, wavelet)``."""

    name: str = "base"

    def __init__(self, seq_len: int, scales: np.ndarray, wavelet: Wavelet):
        self.seq_len = int(seq_len)
        self.scales = np.asarray(scales, dtype=float)
        self.num_scales = len(self.scales)
        self.wavelet = wavelet

    # -- subclass API ---------------------------------------------------
    def transform(self, x: np.ndarray) -> np.ndarray:
        """Complex CWT coefficients of ``x`` (..., T) -> (..., lambda, T)."""
        raise NotImplementedError

    def amplitude(self, x: np.ndarray) -> np.ndarray:
        """``|transform(x)|`` — subclasses may fuse this into one pass."""
        return np.abs(self.transform(x))

    def adjoint(self, grad_coeffs: np.ndarray) -> np.ndarray:
        """Pull a complex cotangent (..., lambda, T) back to a real (..., T).

        This is ``Re(L^H gbar)`` for the transform's linear map ``L`` — the
        exact reverse-mode gradient of ``transform`` w.r.t. a real input.
        """
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Resident bytes of the precomputed filter data."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------
    def _prepare_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        if x.shape[-1] != self.seq_len:
            raise ValueError(
                f"expected last axis of length {self.seq_len}, got {x.shape}")
        return x

    def _kernel(self, scale: float) -> np.ndarray:
        """``h[d] = conj(psi(d / s)) / sqrt(s)`` on offsets d in [-(T-1), T-1]."""
        offsets = np.arange(-(self.seq_len - 1), self.seq_len)
        return np.conj(self.wavelet(offsets / scale)) / math.sqrt(scale)


class DenseSpectralEngine(SpectralEngine):
    """Reference engine: the CWT as one dense ``(T, lambda*T)`` matmul.

    This is byte-for-byte the computation the seed ran: the real/imaginary
    filter banks are held as two float matrices and the complex matmul
    operand is assembled per call.  ``O(lambda * T^2)`` per series — kept
    for exact-equivalence testing and as the benchmark baseline the FFT
    path is measured against.
    """

    name = "dense"

    def __init__(self, seq_len: int, scales: np.ndarray, wavelet: Wavelet):
        super().__init__(seq_len, scales, wavelet)
        # bank[i, b, t] = conj(psi((t - b)/s_i)) / sqrt(s_i)
        offsets = np.arange(seq_len)[None, :] - np.arange(seq_len)[:, None]
        bank = np.empty((self.num_scales, seq_len, seq_len), dtype=complex)
        for idx, s in enumerate(self.scales):
            bank[idx] = np.conj(self.wavelet(offsets / s)) / math.sqrt(s)
        # Flattened matmul form: (T, lambda*T) so that x @ M -> (.., lambda*T)
        flat = bank.transpose(2, 0, 1).reshape(seq_len, self.num_scales * seq_len)
        self._m_real = np.ascontiguousarray(flat.real)
        self._m_imag = np.ascontiguousarray(flat.imag)
        self._m_f32: tuple | None = None

    def _m_parts(self, rdtype):
        if rdtype == np.float32:
            if self._m_f32 is None:
                self._m_f32 = (self._m_real.astype(np.float32),
                               self._m_imag.astype(np.float32))
            return self._m_f32
        return self._m_real, self._m_imag

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = self._prepare_input(x)
        rdtype, _ = _working_dtypes(x)
        mr, mi = self._m_parts(rdtype)
        out = x @ (mr + 1j * mi)
        return out.reshape(*x.shape[:-1], self.num_scales, self.seq_len)

    def adjoint(self, grad_coeffs: np.ndarray) -> np.ndarray:
        g = np.asarray(grad_coeffs)
        rdtype = np.float32 if g.dtype == np.complex64 else np.float64
        flat = g.reshape(*g.shape[:-2], self.num_scales * self.seq_len)
        mr, mi = self._m_parts(rdtype)
        # grad_x = Re(gbar @ conj(M)^T) for C = x @ M, split into two real
        # matmuls so no complex operand needs assembling.
        return flat.real @ mr.T + flat.imag @ mi.T

    @property
    def nbytes(self) -> int:
        total = self._m_real.nbytes + self._m_imag.nbytes
        if self._m_f32 is not None:
            total += sum(m.nbytes for m in self._m_f32)
        return total


class FFTSpectralEngine(SpectralEngine):
    """Zero-padded FFT convolution engine: ``O(lambda * T * log T)``.

    Stores only the ``(lambda, N)`` spectra of the wrapped, time-reversed
    wavelet kernels, ``N = next_fast_len(2T - 1)``.
    """

    name = "fft"

    def __init__(self, seq_len: int, scales: np.ndarray, wavelet: Wavelet):
        super().__init__(seq_len, scales, wavelet)
        self.fft_len = _next_fast_len(2 * seq_len - 1)
        n = self.fft_len
        # Circular kernel for scale i: wrap[m mod N] = g_i[m] = h_i[-m], so
        # (x (*) wrap)[b] = sum_t x[t] h_i[t - b] exactly for b in [0, T)
        # because N >= 2T - 1 rules out wrap-around aliasing.
        wrapped = np.zeros((self.num_scales, n), dtype=complex)
        for idx, s in enumerate(self.scales):
            h = self._kernel(s)                       # offsets -(T-1)..(T-1)
            g = h[::-1]                               # g[m] = h[-m]
            wrapped[idx, :seq_len] = g[seq_len - 1:]          # m = 0..T-1
            wrapped[idx, n - (seq_len - 1):] = g[:seq_len - 1]  # m = -(T-1)..-1
        self._spectra = np.fft.fft(wrapped, axis=-1)   # (lambda, N) complex128
        self._spectra_f32: np.ndarray | None = None
        self._conj_spectra: np.ndarray | None = None
        # One reusable (..., lambda, N) product buffer per (shape, dtype):
        # allocating ~10 MB fresh per call costs more in page faults than
        # the FFTs themselves at paper scale, so the hot loop overwrites.
        self._scratch: Dict[tuple, np.ndarray] = {}

    def _g(self, cdtype) -> np.ndarray:
        if cdtype == np.complex64:
            if self._spectra_f32 is None:
                self._spectra_f32 = self._spectra.astype(np.complex64)
            return self._spectra_f32
        return self._spectra

    def _scratch_for(self, shape: tuple, cdtype) -> np.ndarray:
        key = (shape, np.dtype(cdtype).char)
        buf = self._scratch.get(key)
        if buf is None:
            if len(self._scratch) >= 4:      # bound churn across shapes
                self._scratch.clear()
            buf = self._scratch[key] = np.empty(shape, dtype=cdtype)
        return buf

    def _convolve(self, x: np.ndarray) -> np.ndarray:
        """Shared fwd pipeline -> full circular coefficients (..., lam, N).

        The returned array is engine-owned scratch: callers must reduce or
        copy it before the next engine call.
        """
        x = self._prepare_input(x)
        _, cdtype = _working_dtypes(x)
        spectra = self._g(cdtype)
        spec_x = np.fft.fft(x.astype(cdtype, copy=False), n=self.fft_len,
                            axis=-1)
        prod = self._scratch_for(
            x.shape[:-1] + (self.num_scales, self.fft_len), cdtype)
        np.multiply(spec_x[..., None, :], spectra, out=prod)
        # One monolithic batched IFFT: pocketfft amortises plan startup
        # across the whole (batch * lambda) batch, and out= reuses the
        # product buffer instead of allocating another ~10 MB.
        return np.fft.ifft(prod, axis=-1, out=prod)

    def transform(self, x: np.ndarray) -> np.ndarray:
        coeffs = self._convolve(x)[..., : self.seq_len]
        return np.ascontiguousarray(coeffs)      # detach from scratch

    def amplitude(self, x: np.ndarray) -> np.ndarray:
        # Fused: |C| is written straight out of the scratch buffer without
        # materialising a second (..., lambda, T) complex array.
        coeffs = self._convolve(x)
        rdtype, _ = _working_dtypes(np.asarray(x))
        out = np.empty(coeffs.shape[:-1] + (self.seq_len,), dtype=rdtype)
        return np.abs(coeffs[..., : self.seq_len], out=out)

    def adjoint(self, grad_coeffs: np.ndarray) -> np.ndarray:
        g = np.asarray(grad_coeffs)
        cdtype = np.complex64 if g.dtype == np.complex64 else np.complex128
        rdtype = np.float32 if cdtype == np.complex64 else np.float64
        if cdtype == np.complex64:
            conj = np.conj(self._g(cdtype))
        else:
            if self._conj_spectra is None:
                self._conj_spectra = np.conj(self._spectra)
            conj = self._conj_spectra
        spec_g = np.fft.fft(g.astype(cdtype, copy=False), n=self.fft_len,
                            axis=-1)
        prod = self._scratch_for(spec_g.shape, cdtype)
        np.multiply(spec_g, conj, out=prod)
        # Sum over scales in the frequency domain: one IFFT total, not lambda.
        pooled = prod.sum(axis=-2)
        back = np.fft.ifft(pooled, axis=-1, out=pooled)[..., : self.seq_len]
        return np.ascontiguousarray(back.real, dtype=rdtype)

    @property
    def nbytes(self) -> int:
        # Filter data only — workspace scratch is transient and excluded so
        # the dense/FFT bank-size comparison stays apples-to-apples.
        total = self._spectra.nbytes
        for extra in (self._spectra_f32, self._conj_spectra):
            if extra is not None:
                total += extra.nbytes
        return total


_ENGINES: Dict[str, type] = {
    "dense": DenseSpectralEngine,
    "fft": FFTSpectralEngine,
}


def make_engine(name: str, seq_len: int, scales: np.ndarray,
                wavelet: Wavelet) -> SpectralEngine:
    """Build a spectral engine by name (``'fft'`` or ``'dense'``)."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown spectral engine {name!r}; choose from {sorted(_ENGINES)}"
        ) from None
    return cls(seq_len, scales, wavelet)
