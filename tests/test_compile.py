"""Tests for the graph compiler: capture/replay compiled execution.

The load-bearing contract is *bitwise identity with eager*: a compiled
fit reproduces the fixed-seed golden loss trajectory repr-exactly, shape
changes fall back to a fresh capture instead of corrupting results, serving
hot-reloads retire compiled graphs atomically, and compiled replays never
disturb a retained eager graph or another graph's state.  What the
compiler buys is pinned too: a validated replay builds no ``Tensor`` and
no ``OpNode``.
"""

import numpy as np
import pytest

import repro.spectral.cwt  # noqa: F401 -- registers cwt_amplitude / iwt
from repro.autodiff import (
    CompiledForward, CompiledStep, CompileUnsupported, OpNode, Tensor,
    make_compiled_forward, mse_loss, no_grad,
)
from repro.baselines import build_model
from repro.nn import Linear, Module, save_checkpoint
from repro.serving import (
    MicroBatcher, ModelRegistry, ServerMetrics, single_forward,
)
from repro.utils import set_seed

SEQ, PRED, CIN = 16, 8, 3


def _ts3net(seq=SEQ):
    set_seed(0)
    return build_model("TS3Net", seq_len=seq, pred_len=PRED, c_in=CIN,
                       preset="tiny")


def _batch(batch_size=2, seq=SEQ, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((batch_size, seq, CIN)),
            rng.standard_normal((batch_size, PRED, CIN)))


def _step_fn(model):
    def step_fn(batch):
        x, y = batch
        return (mse_loss(model(Tensor(x)), y),)
    return step_fn


def _grad_bytes(model):
    return [p.grad.tobytes() if p.grad is not None else None
            for p in model.parameters()]


# ---------------------------------------------------------------------------
# Bit-identity: the golden trajectory and the replay machinery
# ---------------------------------------------------------------------------

class TestCompiledGolden:
    # Same repr-exact floats as tests/test_op_registry.py::TestBitIdentity —
    # recorded on the closure tape before the IR refactor, reproduced by the
    # eager IR in PR 3, and now by compiled replay.
    GOLDEN_TRAIN = [1.2476584778602362, 1.119118254141464, 1.0221905211103794]
    GOLDEN_VAL = [1.905923943047305, 1.8018306557895618, 1.7543303957001748]
    GOLDEN_MSE = 0.7023576225695288
    GOLDEN_MAE = 0.7083627841471343

    def test_compiled_fit_reproduces_the_golden_trajectory(self):
        from repro.data.dataset import load_dataset
        from repro.tasks import ForecastTask, TrainConfig, run_forecast

        set_seed(0)
        split = load_dataset("ETTh1", n_steps=400, seed=0)
        model = build_model("TS3Net", seq_len=32, pred_len=8,
                            c_in=split.train.shape[1], preset="tiny")
        task = ForecastTask(seq_len=32, pred_len=8, batch_size=8,
                            max_train_batches=4, max_eval_batches=2)
        result = run_forecast(model, split, task,
                              TrainConfig(epochs=3, lr=2e-3, compiled=True))
        assert result.train_losses == self.GOLDEN_TRAIN
        assert result.val_losses == self.GOLDEN_VAL
        assert result.mse == self.GOLDEN_MSE
        assert result.mae == self.GOLDEN_MAE

    def test_replays_run_and_match_eager_bitwise(self):
        model = _ts3net()
        cstep = CompiledStep(model, _step_fn(model))
        batch = _batch()
        losses = [cstep.step(batch) for _ in range(6)]
        assert not cstep.disabled, cstep.disabled_reason
        assert cstep.captures == 1
        assert cstep.validations == 1
        assert cstep.replays == 4
        compiled_grads = _grad_bytes(model)

        reference = _ts3net()
        ref_step = CompiledStep(reference, _step_fn(reference))
        ref_losses = [ref_step._eager(batch) for _ in range(6)]
        assert repr(losses) == repr(ref_losses)
        assert compiled_grads == _grad_bytes(reference)

    def test_validated_replay_builds_no_tensors_or_nodes(self, monkeypatch):
        # The compiled gates pay for exactly this: a replay skips the
        # Tensor/OpNode construction every eager op dispatch performs.
        model = _ts3net()
        cstep = CompiledStep(model, _step_fn(model))
        batch = _batch()
        for _ in range(2):  # capture, then bitwise validation
            cstep.step(batch)
        assert cstep.validations == 1, cstep.disabled_reason

        built = {Tensor: 0, OpNode: 0}
        for cls in built:
            def counting_init(self, *args, _cls=cls, _init=cls.__init__,
                              **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting_init)

        cstep.step(batch)
        assert cstep.replays == 1
        assert built == {Tensor: 0, OpNode: 0}

        cstep._eager(batch)
        assert built[Tensor] > 0 and built[OpNode] > 0


# ---------------------------------------------------------------------------
# Shape-change fallback
# ---------------------------------------------------------------------------

class TestShapeChange:
    def test_each_shape_gets_its_own_graph_and_matches_eager(self):
        schedule = ([_batch(batch_size=2)] * 3
                    + [_batch(batch_size=5, seed=2)] * 3
                    + [_batch(batch_size=2)])

        model = _ts3net()
        cstep = CompiledStep(model, _step_fn(model))
        losses = [cstep.step(b) for b in schedule]
        assert not cstep.disabled, cstep.disabled_reason
        assert cstep.stats()["graphs"] == 2
        compiled_grads = _grad_bytes(model)

        reference = _ts3net()
        ref_step = CompiledStep(reference, _step_fn(reference))
        ref_losses = [ref_step._eager(b) for b in schedule]
        assert repr(losses) == repr(ref_losses)
        assert compiled_grads == _grad_bytes(reference)

    def test_trainer_falls_back_when_model_is_not_traceable(self):
        # DLinear exposes no trace_signature(): fit(compiled=True) must
        # run eagerly and still match the uncompiled fit bitwise.
        from repro.tasks.trainer import TrainConfig, Trainer

        def fit(compiled):
            set_seed(0)
            model = build_model("DLinear", seq_len=SEQ, pred_len=PRED,
                                c_in=CIN, preset="tiny")
            trainer = Trainer(model, TrainConfig(epochs=2, lr=1e-3,
                                                 compiled=compiled))
            rng = np.random.default_rng(3)
            batches = [(rng.standard_normal((4, SEQ, CIN)),
                        rng.standard_normal((4, PRED, CIN)))
                       for _ in range(3)]

            def step_fn(b):
                x, y = b
                pred = trainer.model(Tensor(x))
                return mse_loss(pred, y), pred.data, y, None

            return trainer.fit(batches, batches[:1], step_fn)

        eager, compiled = fit(False), fit(True)
        assert repr(eager.train_losses) == repr(compiled.train_losses)
        assert repr(eager.val_losses) == repr(compiled.val_losses)

    def test_untraceable_model_raises_compile_unsupported(self):
        model = build_model("DLinear", seq_len=SEQ, pred_len=PRED, c_in=CIN,
                            preset="tiny")
        with pytest.raises(CompileUnsupported):
            CompiledStep(model, _step_fn(model))
        assert make_compiled_forward(model) is None


# ---------------------------------------------------------------------------
# Compiled inference forwards + serving integration
# ---------------------------------------------------------------------------

def _make_ckpt(path, model_name, seed=0):
    set_seed(seed)
    model = build_model(model_name, seq_len=32, pred_len=PRED, c_in=CIN,
                        task="forecast", preset="tiny")
    save_checkpoint(model, str(path), metadata={
        "model": model_name, "dataset": "unit", "task": "forecast",
        "seq_len": 32, "pred_len": PRED, "c_in": CIN, "preset": "tiny"})
    return str(path)


def _window(period=8, seed=0, seq=32):
    rng = np.random.default_rng(seed)
    t = np.arange(seq)[:, None]
    return (np.sin(2 * np.pi * t / period) * 3.0
            + 0.01 * rng.standard_normal((seq, CIN)))


class TestCompiledForwardServing:
    def test_forward_replays_bitwise_per_shape(self):
        model = _ts3net(seq=32).eval()
        cf = CompiledForward(model)
        x1 = _window(8)[None]
        with no_grad():
            want = model(Tensor(x1)).data
        outs = [np.array(cf.forward(x1)) for _ in range(3)]
        assert not cf.disabled, cf.disabled_reason
        assert cf.stats()["replays"] >= 1
        for out in outs:
            assert repr(out) == repr(want)
        # a second shape gets its own graph, no fallback
        x2 = np.stack([_window(8, seed=1), _window(8, seed=2)])
        with no_grad():
            want2 = model(Tensor(x2)).data
        cf.forward(x2)
        assert repr(np.array(cf.forward(x2))) == repr(want2)
        assert cf.stats()["graphs"] == 2
        assert not cf.disabled

    def test_hot_reload_swaps_in_a_fresh_compiled_forward(self, tmp_path):
        registry = ModelRegistry(expect_task="forecast", compiled=True)
        old = registry.load("ts3", _make_ckpt(tmp_path / "a.npz", "TS3Net"))
        assert old.compiled is not None
        assert old.describe()["compiled"] is True

        w = _window(8)
        old_ref = single_forward(old, w)
        for _ in range(3):  # capture, validate, replay on the old graphs
            old.compiled.forward(w[None])
        assert old.compiled.stats()["replays"] >= 1

        new = registry.reload(
            "ts3", _make_ckpt(tmp_path / "b.npz", "TS3Net", seed=1))
        # structural invalidation: the new entry carries a *new* compiled
        # instance (no graph traced against the old weights survives), and
        # in-flight holders of the old entry keep bit-identical results.
        assert new.compiled is not None
        assert new.compiled is not old.compiled
        assert repr(np.array(old.compiled.forward(w[None])[0])) == repr(old_ref)
        new_ref = single_forward(new, w)
        assert repr(new_ref) != repr(old_ref)
        assert repr(np.array(new.compiled.forward(w[None])[0])) == repr(new_ref)

    def test_batcher_serves_compiled_entries_bitwise(self, tmp_path):
        registry = ModelRegistry(expect_task="forecast", compiled=True)
        registry.load("ts3", _make_ckpt(tmp_path / "a.npz", "TS3Net"))
        entry = registry.get("ts3")
        windows = [_window(4, seed=i) for i in range(2)]
        reference = [single_forward(entry, w) for w in windows]

        metrics = ServerMetrics()
        batcher = MicroBatcher(registry, max_batch_size=2, max_wait_ms=5000,
                               metrics=metrics, start=False)
        futures = [batcher.submit("ts3", w) for w in windows]
        batcher.start()
        results = [f.result(timeout=30) for f in futures]
        batcher.close()
        for got, want in zip(results, reference):
            assert repr(got) == repr(want)

    def test_uncompilable_architecture_serves_eagerly(self, tmp_path):
        registry = ModelRegistry(expect_task="forecast", compiled=True)
        entry = registry.load(
            "dlinear", _make_ckpt(tmp_path / "d.npz", "DLinear"))
        assert entry.compiled is None  # no trace_signature: quiet eager path
        out = single_forward(entry, _window(8))
        assert out.shape == (PRED, CIN)


# ---------------------------------------------------------------------------
# Isolation: retained eager graphs and interleaved compiled graphs
# ---------------------------------------------------------------------------

class TestGraphIsolation:
    def test_retained_eager_graph_survives_compiled_replays(self):
        # An eager graph held alive by retain_graph=True must keep its
        # saved activations byte-for-byte while compiled replays run in
        # the same process.
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        out = ((x @ x).tanh() * x).sum()
        out.backward(retain_graph=True)
        first = x.grad.tobytes()

        model = _ts3net()
        cstep = CompiledStep(model, _step_fn(model))
        batch = _batch()
        for _ in range(5):
            cstep.step(batch)
        assert cstep.replays >= 3

        x.grad = None
        out.backward()  # consumes the retained saved activations
        assert x.grad.tobytes() == first

    def test_interleaved_replays_match_eager_bitwise(self):
        # Two graphs sharing the process (and the RNG stream) replay in
        # alternation; any array shared between them, or stale state
        # carried across steps, would break bitwise identity with the
        # eager run of the identical schedule.
        batch_a, batch_b = _batch(seed=1), _batch(batch_size=5, seed=2)
        schedule = [batch_a] * 3 + [batch_b] * 3 + [batch_a, batch_b] * 2

        model = _ts3net()
        cstep = CompiledStep(model, _step_fn(model))
        losses = [cstep.step(b) for b in schedule]
        assert not cstep.disabled, cstep.disabled_reason
        assert cstep.replays >= 4
        compiled_grads = _grad_bytes(model)

        reference = _ts3net()
        ref_step = CompiledStep(reference, _step_fn(reference))
        ref_losses = [ref_step._eager(b) for b in schedule]
        assert repr(losses) == repr(ref_losses)
        assert compiled_grads == _grad_bytes(reference)


# ---------------------------------------------------------------------------
# Constant subgraphs
# ---------------------------------------------------------------------------

class _ConstTableNet(Module):
    """A head whose forward rebuilds a constant table from literals every
    call: the table's instructions replay from a baked leaf with no
    parameter or batch input."""

    def __init__(self):
        super().__init__()
        self.lin = Linear(4, 4)

    def forward(self, x):
        table = (Tensor(np.arange(16.0).reshape(4, 4)) * 0.5).exp()
        return self.lin(x @ table)

    def trace_signature(self, x):
        return ()


class TestConstantSubgraph:
    def test_rebuilt_constant_table_replays_bitwise(self):
        set_seed(0)
        model = _ConstTableNet()

        def step_fn(batch):
            x, y = batch
            return (mse_loss(model(Tensor(x)), y),)

        rng = np.random.default_rng(1)
        batch = (rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        cstep = CompiledStep(model, step_fn)
        losses = [cstep.step(batch) for _ in range(4)]
        assert not cstep.disabled, cstep.disabled_reason
        assert cstep.replays >= 2

        set_seed(0)
        reference = _ConstTableNet()
        ref_step = CompiledStep(reference, lambda b: (
            mse_loss(reference(Tensor(b[0])), b[1]),))
        ref_losses = [ref_step._eager(batch) for _ in range(4)]
        assert repr(losses) == repr(ref_losses)
        assert _grad_bytes(model) == _grad_bytes(reference)
