"""Golden-trajectory guard for the task layer.

Fixed-seed forecast and imputation runs must stay *bitwise* identical —
every train/val loss and the final test MSE/MAE compare equal as exact
float64 values.  Any refactor of the task registry, trainer, loaders, or
autodiff engine that perturbs a single bit of these trajectories fails
here first, with an exact diff.
"""

import pytest

from repro.baselines import build_model
from repro.data import load_dataset
from repro.tasks import (
    ForecastTask, ImputationTask, TrainConfig, run_forecast, run_imputation,
)
from repro.utils import set_seed


@pytest.fixture(scope="module")
def split():
    return load_dataset("ETTh1", n_steps=600, seed=0)


def _config():
    return TrainConfig(epochs=3, lr=1e-2)


def _assert_trajectory(result, train, val, mse, mae):
    # Exact float64 equality: literals round-trip bit-exactly, so these
    # assertions are bitwise, not approximate.
    assert result.train_losses == train
    assert result.val_losses == val
    assert result.mse == mse
    assert result.mae == mae


# Eager is the only execution mode; the one-value parametrisation keeps
# the "[eager]" test ids these goldens have always been reported under.
@pytest.mark.parametrize("mode", ["eager"])
class TestDLinearGoldens:
    def test_forecast_trajectory(self, split, mode):
        set_seed(0)
        model = build_model("DLinear", seq_len=24, pred_len=8, c_in=7,
                            task="forecast")
        task = ForecastTask(seq_len=24, pred_len=8, batch_size=8,
                            max_train_batches=4, max_eval_batches=2, seed=0)
        result = run_forecast(model, split, task, _config())
        _assert_trajectory(
            result,
            train=[0.8768350916355978, 0.5434552004279922,
                   0.511051574119264],
            val=[0.727731879219409, 0.5817072977103077,
                 0.5210758946150658],
            mse=0.35833348159127054, mae=0.47357133762551207)

    def test_imputation_trajectory(self, split, mode):
        set_seed(0)
        model = build_model("DLinear", seq_len=24, pred_len=24, c_in=7,
                            task="imputation")
        task = ImputationTask(seq_len=24, mask_ratio=0.25, batch_size=8,
                              max_train_batches=4, max_eval_batches=2,
                              seed=0)
        result = run_imputation(model, split, task, _config())
        _assert_trajectory(
            result,
            train=[0.9151605505785878, 0.5839310715809114,
                   0.46209889562808404],
            val=[0.6617248327021011, 0.5520900259831283,
                 0.4799333640031168],
            mse=0.4385794249096801, mae=0.5187513243000864)


@pytest.mark.parametrize("mode", ["eager"])
class TestTS3NetGoldens:
    def test_forecast_trajectory(self, split, mode):
        set_seed(0)
        model = build_model("TS3Net", seq_len=24, pred_len=8, c_in=7,
                            task="forecast", preset="tiny", num_scales=4)
        task = ForecastTask(seq_len=24, pred_len=8, batch_size=8,
                            max_train_batches=3, max_eval_batches=2, seed=0)
        cfg = TrainConfig(epochs=2, lr=1e-2)
        result = run_forecast(model, split, task, cfg)
        _assert_trajectory(
            result,
            train=[0.8352836300458075, 0.6939607587840896],
            val=[0.9388711017925332, 0.8176983603338479],
            mse=0.6006219009948636, mae=0.6348438838665971)

    def test_imputation_trajectory(self, split, mode):
        set_seed(0)
        model = build_model("TS3Net", seq_len=24, pred_len=24, c_in=7,
                            task="imputation", preset="tiny", num_scales=4)
        task = ImputationTask(seq_len=24, mask_ratio=0.25, batch_size=8,
                              max_train_batches=3, max_eval_batches=2,
                              seed=0)
        cfg = TrainConfig(epochs=2, lr=1e-2)
        result = run_imputation(model, split, task, cfg)
        _assert_trajectory(
            result,
            train=[0.8883726940608011, 0.7296850209451012],
            val=[0.7932669056782506, 0.7054514913598549],
            mse=0.6627288132646454, mae=0.6677938141162134)
