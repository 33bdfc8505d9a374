"""TS3Net — the paper's task-general model (Fig. 2, Alg. 1, Eq. 12-17).

Forward pass for an input window ``X in R^{B x T x C}``:

1. *(optional)* instance normalisation (subtract the window mean, divide by
   the window std; statistics are restored on the output) — the standard
   non-stationarity guard of the TimesNet experimental protocol under which
   the paper evaluates;
2. trend decomposition: ``X = X_trend + X_seasonal`` (Eq. 1);
3. the trend is forecast by the Autoregression head (Eq. 16);
4. the seasonal part is embedded to ``d_model`` channels and flows through
   ``N`` stacked TF-Blocks; an S-GD layer sits before each block (Eq. 12),
   peeling off a spectrum-gradient tensor ``X_f^{l-1}`` each time;
5. the regular stream's final state feeds the regular prediction head
   (Eq. 14); the accumulated fluctuant tensors are collapsed with the IWT
   and fed to the fluctuant head (Eq. 15);
6. the three predictions are summed (Eq. 17) and de-normalised.

Ablation switches reproduce Table VI:

* ``use_td=False``   — "w/o TD": no trend split, no S-GD; the embedded
  input goes straight through the TF-Blocks and a single head.
* ``tf_mode='replicate'`` — "w/o TF-Block": the wavelet spectrum expansion
  is replaced by the paper's control of "converting 1D time series to 2D
  tensor by replicating and concatenating only".
* both together   — "w/o Both".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..autodiff import Tensor, no_grad, ops
from ..decomposition.spectrum_gradient import SpectrumGradientDecomposition
from ..decomposition.trend import DEFAULT_KERNELS, SeriesDecomposition
from ..nn import (
    DataEmbedding, Dropout, GELU, InceptionBlock2d, LayerNorm, Linear,
    Module, ModuleList, Sequential,
)
from ..spectral.periods import detect_periods, dominant_period, topk_frequencies
from .heads import AutoregressionHead, PredictionHead
from .tf_block import TFBlock


@dataclass
class TS3NetConfig:
    """Hyper-parameters of TS3Net (defaults follow Table III at small scale).

    ``num_scales`` is the paper's ``lambda`` (100 by default in the paper;
    small here so CPU training stays fast — the sensitivity study of
    Table IX sweeps it).
    """

    seq_len: int = 96
    pred_len: int = 96
    c_in: int = 7
    d_model: int = 32
    num_blocks: int = 2          # stacked TF-Blocks (paper default: 2)
    num_scales: int = 16         # lambda
    num_branches: int = 2        # m mother-wavelet branches
    d_ff: int = 32
    num_kernels: int = 3
    dropout: float = 0.1
    trend_kernels: Sequence[int] = field(default=DEFAULT_KERNELS)
    top_k_periods: int = 1       # k of Eq. 2 used for S-GD chunking
    use_norm: bool = True
    use_td: bool = True          # ablation: triple decomposition on/off
    tf_mode: str = "wavelet"     # "wavelet" | "replicate" (Table VI control)
    first_chunk_zero: bool = True
    task: str = "forecast"       # "forecast" | "imputation"

    @property
    def out_len(self) -> int:
        return self.seq_len if self.task == "imputation" else self.pred_len


class ReplicateBlock(Module):
    """The Table VI "w/o TF-Block" control: 2-D tensor by replication only.

    The 1-D sequence is tiled ``num_scales`` times into the rows of a 2-D
    tensor and processed by the same inception backbone + collapse as the
    real TF-Block, isolating the contribution of the wavelet expansion.
    """

    def __init__(self, seq_len: int, d_model: int, num_scales: int,
                 d_ff: int, num_kernels: int = 3, dropout: float = 0.1):
        super().__init__()
        self.num_scales = num_scales
        self.backbone = Sequential(
            InceptionBlock2d(d_model, d_ff, num_kernels),
            GELU(),
            InceptionBlock2d(d_ff, d_model, num_kernels),
        )
        self.scale_collapse = Linear(num_scales, 1, bias=False)
        self.ff = Sequential(Linear(d_model, d_model), Dropout(dropout))
        self.norm = LayerNorm(d_model)

    def forward(self, x: Tensor) -> Tensor:
        # (B, T, D) -> (B, D, 1, T) tiled to (B, D, lam, T)
        x2d = x.swapaxes(-2, -1).unsqueeze(2)
        tiled = ops.concat([x2d] * self.num_scales, axis=2)
        feat = self.backbone(tiled)
        feat = feat.transpose(0, 3, 1, 2)              # (B, T, D, lam)
        collapsed = self.scale_collapse(feat).squeeze(-1)
        return self.norm(x + self.ff(collapsed))


class TS3Net(Module):
    """Triple-decomposition network for forecasting and imputation."""

    def __init__(self, config: Optional[TS3NetConfig] = None, **overrides):
        super().__init__()
        if config is None:
            config = TS3NetConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides, not both")
        self.config = config
        cfg = config

        self.trend_decomp = SeriesDecomposition(cfg.trend_kernels)
        self.embedding = DataEmbedding(cfg.c_in, cfg.d_model, dropout=cfg.dropout)

        if cfg.tf_mode == "wavelet":
            make_block = lambda: TFBlock(
                cfg.seq_len, cfg.d_model, num_scales=cfg.num_scales,
                num_branches=cfg.num_branches, d_ff=cfg.d_ff,
                num_kernels=cfg.num_kernels, dropout=cfg.dropout)
        elif cfg.tf_mode == "replicate":
            make_block = lambda: ReplicateBlock(
                cfg.seq_len, cfg.d_model, num_scales=cfg.num_scales,
                d_ff=cfg.d_ff, num_kernels=cfg.num_kernels, dropout=cfg.dropout)
        else:
            raise ValueError(f"unknown tf_mode {cfg.tf_mode!r}")
        self.blocks = ModuleList([make_block() for _ in range(cfg.num_blocks)])

        if cfg.use_td:
            self.sgd_layers = ModuleList([
                SpectrumGradientDecomposition(
                    cfg.seq_len, cfg.num_scales,
                    first_chunk_zero=cfg.first_chunk_zero)
                for _ in range(cfg.num_blocks)
            ])
            self.fluctuant_head = PredictionHead(
                cfg.seq_len, cfg.out_len, cfg.d_model, cfg.c_in, cfg.dropout)
            self.trend_head = AutoregressionHead(cfg.seq_len, cfg.out_len)
        self.regular_head = PredictionHead(
            cfg.seq_len, cfg.out_len, cfg.d_model, cfg.c_in, cfg.dropout)

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """Map a lookback window (B, T, C) to predictions (B, out_len, C)."""
        cfg = self.config
        if cfg.use_norm:
            # Statistics are detached (no_grad: gradients do not flow into
            # them, matching the standard stop-gradient instance norm).
            with no_grad():
                mean = x.mean(axis=1, keepdims=True)
                std = ops.instance_std(x, axis=1, eps=1e-5)
            x = (x - mean) / std

        if cfg.use_td:
            out = self._forward_triple(x)
        else:
            out = self._forward_plain(x)

        if cfg.use_norm:
            out = out * std + mean
        return out

    def _forward_plain(self, x: Tensor) -> Tensor:
        """Ablation path (w/o TD): embed -> TF-Blocks -> single head."""
        h = self.embedding(x)
        for block in self.blocks:
            h = block(h)
        return self.regular_head(h)

    def _sgd_multi(self, sgd, h: Tensor, periods) -> tuple:
        """Apply one S-GD layer at each top-k period and average (Eq. 2's
        "in practice we use the top-k periodicities")."""
        regular = None
        fluct = None
        for period in periods:
            res = sgd(h, period=int(period))
            regular = res.regular if regular is None else regular + res.regular
            fluct = res.fluctuant if fluct is None else fluct + res.fluctuant
        k = float(len(periods))
        return regular / k, fluct / k

    def _forward_triple(self, x: Tensor) -> Tensor:
        cfg = self.config
        seasonal, trend = self.trend_decomp(x)
        y_trend = self.trend_head(trend)

        periods, _ = detect_periods(seasonal.data, k=cfg.top_k_periods)
        h = self.embedding(seasonal)

        fluct_sum = None
        for sgd, block in zip(self.sgd_layers, self.blocks):
            regular, fluct = self._sgd_multi(sgd, h, periods)
            fluct_sum = fluct if fluct_sum is None else fluct_sum + fluct
            h = block(regular)

        y_regular = self.regular_head(h)

        # Eq. 15: collapse the accumulated spectrum gradients back to 1-D and
        # predict from them. fluct_sum: (B, D, lambda, T).
        fluct_1d = self.sgd_layers[0].operator.inverse(fluct_sum)   # (B, D, T)
        fluct_1d = fluct_1d.swapaxes(-2, -1)                        # (B, T, D)
        y_fluct = self.fluctuant_head(fluct_1d)

        return y_trend + y_regular + y_fluct

    # ------------------------------------------------------------------
    def encode(self, x: Tensor) -> Tensor:
        """Return the deep representation of a window — (B, T, d_model).

        The paper calls TS3Net "task-general": this exposes the regular
        stream's final state (the input to the prediction head, Eq. 14) so
        downstream tasks (classification, anomaly scoring, retrieval) can
        consume TS3Net features without the forecasting head.
        """
        cfg = self.config
        if cfg.use_norm:
            with no_grad():
                mean = x.mean(axis=1, keepdims=True)
                std = ops.instance_std(x, axis=1, eps=1e-5)
            x = (x - mean) / std
        if not cfg.use_td:
            h = self.embedding(x)
            for block in self.blocks:
                h = block(h)
            return h
        seasonal, _ = self.trend_decomp(x)
        period = dominant_period(seasonal.data)
        h = self.embedding(seasonal)
        for sgd, block in zip(self.sgd_layers, self.blocks):
            res = sgd(h, period=period)
            h = block(res.regular)
        return h

    # ------------------------------------------------------------------
    def batch_signature(self, window: np.ndarray) -> tuple:
        """Micro-batching key: windows sharing it can be stacked losslessly.

        The only cross-sample coupling in the forward pass is Eq. 2's period
        detection, which averages amplitude spectra over the batch.  For any
        group of windows whose *per-window* ordered top-k frequency picks
        agree, the batch-averaged spectrum provably picks the same ordered
        top-k (each chosen frequency dominates every other pointwise across
        the group), so a stacked forward is bit-identical to the per-window
        forwards.  The serving batcher only stacks windows with equal keys.
        """
        cfg = self.config
        if not cfg.use_td:
            return ()
        from ..autodiff import no_grad
        with no_grad():
            seasonal, _ = self.trend_decomp(Tensor(np.asarray(window)[None]))
        top = topk_frequencies(seasonal.data, k=cfg.top_k_periods)
        return tuple(int(f) for f in top)

    # ------------------------------------------------------------------
    def decompose(self, x: Tensor):
        """Expose the data-level triple decomposition (used by Fig. 5)."""
        from ..decomposition.triple import TripleDecomposition
        td = TripleDecomposition(
            seq_len=x.shape[1], num_scales=self.config.num_scales,
            trend_kernels=self.config.trend_kernels,
            first_chunk_zero=self.config.first_chunk_zero)
        return td(x)
