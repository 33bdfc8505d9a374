"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import compare
import stats
import tracing
import workloads
from conftest import E2E, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def context(recorder=None, seed=0):
    return workloads.Context(seed=seed, seconds=0.0, smoke=True,
                             setup_only=False, scratch="", recorder=recorder)


# ----------------------------------------------------------------------
def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert stats.percentile(range(20), 50) == pytest.approx(9.5)
    assert stats.percentile(range(100), 90) == pytest.approx(89.1)
    for n, q in ((19, 50), (99, 90), (999, 99), (0, 50)):
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(range(n), q)
    assert stats.percentile([3.0], 99, min_beyond=0) == 3.0
    with pytest.raises(ValueError):
        stats.percentile(range(100), 99.5)


def test_arrival_schedule_is_seeded():
    first = workloads.arrival_times(50.0, 10.0, seed=3)
    assert np.array_equal(first, workloads.arrival_times(50.0, 10.0, seed=3))
    assert not np.array_equal(first, workloads.arrival_times(50.0, 10.0, 4))
    assert np.all(np.diff(first) > 0) and first[-1] < 10.0
    assert 400 <= len(first) <= 600


@pytest.mark.parametrize("traced", [False, True])
def test_wrapped_loader_fit_is_bitwise_run_forecast_cell(traced):
    from repro.experiments.runner import run_forecast_cell
    reference = run_forecast_cell("TS3Net", "ETTh1", 8, scale="micro", seed=0)
    recorder = tracing.Recorder() if traced else None
    cell = workloads.run_cell(context(recorder), "TS3Net", "ETTh1", 8,
                              "micro")
    assert repr(cell.fit.mse) == repr(reference["mse"])
    assert repr(cell.fit.mae) == repr(reference["mae"])
    # A traced run traces every odd step, and only those.
    steps = len(cell.train.steps)
    assert [on for _, _, on in cell.train.steps] == [
        traced and i % 2 == 1 for i in range(steps)]
    assert steps > 1
    if traced:
        assert not recorder._undo, "hooks left behind after the cell"


def test_traced_layers_cover_the_model_and_the_step_within_5_percent():
    """At the lambda = 100 shape the ops do almost all the work: TS3Net's
    named layers must hold all but 5% of the model forward (the rest
    falls to ``model.other``), and op times must sum to the step."""
    from repro.baselines import build_model
    from repro.data import load_dataset
    from repro.tasks.forecasting import FORECAST_SPEC, ForecastTask
    from repro.tasks.trainer import TrainConfig
    from repro.utils import set_seed

    ctx = context(tracing.Recorder())
    cell = workloads.Cell("TS3Net")
    set_seed(0)
    model = build_model("TS3Net", seq_len=96, pred_len=96, c_in=7,
                        preset="tiny", num_scales=100)
    config = ForecastTask(seq_len=96, pred_len=96, batch_size=4,
                          max_train_batches=4, max_eval_batches=1)
    workloads.fit_timed(ctx, cell, FORECAST_SPEC, model,
                        load_dataset("ETTh1", n_steps=2000), config,
                        TrainConfig(epochs=1))
    layers = workloads._traced_training_layers(ctx, [cell])
    assert layers["model.other.fwd_ms"] <= 0.05 * layers["model.fwd_ms"]
    assert layers["autodiff.op_coverage"] == pytest.approx(1.0, abs=0.05)
    assert layers["core.tf_block.backbone.fwd_ms"] > 0


def test_layer_partition_is_exhaustive_and_disjoint():
    rec = tracing.Recorder()
    t = iter(range(100))

    def span(name, cls, children=()):
        rec.open(name, cls=cls, start=float(next(t)))
        for child in children:
            child()
        rec.close(float(next(t)))

    span("", "TS3Net", [
        lambda: span("trend_decomp", "SeriesDecomposition"),
        lambda: span("blocks.0", "TFBlock", [
            lambda: span("blocks.0.branches.0", "TFBranch", [
                lambda: span("blocks.0.branches.0.backbone", "Sequential", [
                    lambda: span("blocks.0.branches.0.backbone.0",
                                 "InceptionBlock2d")]),
                lambda: span("blocks.0.branches.0.scale_collapse", "Linear"),
            ]),
            lambda: span("blocks.0.norm", "LayerNorm"),
        ]),
    ])
    layers = tracing.module_layers(rec.spans, tracing.FORWARD)
    assert sum(layers[k] for k in tracing.LAYERS) == layers["model"]
    assert layers["core.tf_block.backbone"] == 3.0
    assert layers["inception"] == 1.0
    assert layers["forwards"] == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--out", str(tmp_path / "run.json")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "train_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _set(values, metric="p50_ms"):
    return [{"seed": i, "metrics": {metric: {"value": v, "unit": "ms"}}}
            for i, v in enumerate(values)]


@pytest.mark.parametrize("b, expected", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], "unchanged"),
    ([120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "regressed"),
    ([90, 91, 89, 90, 92, 88, 90, 91, 89, 90], "improved"),
])
def test_compare_verdicts(b, expected):
    a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    got = compare.verdict(_set(a), _set(b), "p50_ms", "lower", 0.1)
    assert got["verdict"] == expected


@pytest.mark.parametrize("shift, expected", [
    (5, "unresolved"),      # within the bound: noise hides the answer
    (20, "regressed"),      # beyond it: a regression however noisy A is
])
def test_compare_on_a_noisy_baseline(shift, expected):
    a = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    b = [p + shift for p in a]
    got = compare.verdict(_set(a), _set(b), "p50_ms", "lower", 0.1)
    assert got["verdict"] == expected
