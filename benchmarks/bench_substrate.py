"""Perf-regression harness for the substrate: CWT, conv, attention, models.

Two entry points share one suite of timed cases:

* ``pytest benchmarks/bench_substrate.py --benchmark-only`` — classic
  pytest-benchmark runs of each case;
* ``python benchmarks/bench_substrate.py`` — times every case directly
  (min/mean over rounds) and writes ``BENCH_substrate.json`` at the repo
  root, so successive PRs can track the substrate's trajectory and
  ``scripts/bench_compare.py`` can gate CI on >25% regressions.

The CWT cases run at the paper-scale shape ``(B=32, T=96, lambda=100)`` and
time both the FFT engine (the default) and the retained dense-matmul
reference; the JSON records their agreement (max relative error) and the
FFT speedup alongside the timings.

On top of the per-op cases, a *grid* section times an 8-cell tiny
Table-IV slice through the experiment engine four ways — serial, parallel
workers, cold result-cache, warm result-cache — and records the parallel
speedup, the warm/cold fraction, and whether parallel metrics matched the
serial reference bit-for-bit (all gated by ``scripts/bench_compare.py``).

``src_lines`` (lines of Python under ``src/``) is recorded, ungated, so
the code budget's trajectory stays visible next to the perf facts.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

if __package__ is None and "repro" not in sys.modules:  # direct execution
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.autodiff import GraphProfiler, Tensor, conv2d, mse_loss
from repro.baselines import build_model
from repro.core.tf_block import TFBlock
from repro.nn import MultiHeadAttention
from repro.spectral import CWTOperator
from repro.utils import set_seed

RNG = np.random.default_rng(0)
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_substrate.json")

# Paper-scale CWT shape (Table III defaults: lookback 96, lambda = 100).
CWT_BATCH, CWT_T, CWT_LAMBDA = 32, 96, 100
# Long-lookback shape where the O(lambda*T^2) vs O(lambda*T*log T) gap is
# decisive rather than marginal (336 is the common long-horizon lookback).
CWT_T_LONG = 336

BENCH_MODELS = ["TS3Net", "DLinear", "PatchTST", "TimesNet", "MICN"]


# ---------------------------------------------------------------------------
# Timed cases: each builder returns a zero-argument callable to time.
# ---------------------------------------------------------------------------

def case_cwt_amplitude_forward(engine: str, seq_len: int = CWT_T):
    op = CWTOperator.cached(seq_len, CWT_LAMBDA, engine=engine)
    x = RNG.standard_normal((CWT_BATCH, seq_len))
    return lambda: op.amplitude_array(x)


def case_cwt_amplitude_forward_f32():
    op = CWTOperator.cached(CWT_T, CWT_LAMBDA, engine="fft")
    x = RNG.standard_normal((CWT_BATCH, CWT_T)).astype(np.float32)
    return lambda: op.amplitude_array(x)


def case_cwt_amplitude_grad(engine: str):
    op = CWTOperator.cached(CWT_T, CWT_LAMBDA, engine=engine)
    x = Tensor(RNG.standard_normal((CWT_BATCH, CWT_T)), requires_grad=True)

    def step():
        x.zero_grad()
        op.amplitude(x).sum().backward()

    return step


def case_cwt_inverse():
    op = CWTOperator.cached(CWT_T, CWT_LAMBDA, engine="fft")
    coeffs = RNG.standard_normal((CWT_BATCH, CWT_LAMBDA, CWT_T))
    return lambda: op.inverse_array(coeffs)


def case_conv2d_forward_backward():
    x = Tensor(RNG.standard_normal((8, 16, 8, 48)), requires_grad=True)
    w = Tensor(RNG.standard_normal((16, 16, 3, 3)), requires_grad=True)

    def step():
        x.zero_grad()
        w.zero_grad()
        conv2d(x, w, padding=1).sum().backward()

    return step


def _make_tf_block():
    set_seed(0)
    block = TFBlock(seq_len=CWT_T, d_model=16, num_scales=32, num_branches=2,
                    d_ff=32)
    x = Tensor(RNG.standard_normal((8, CWT_T, 16)), requires_grad=True)
    return block, x


def case_tfblock_forward_backward():
    block, x = _make_tf_block()

    def step():
        block.zero_grad()
        x.zero_grad()
        block(x).sum().backward()

    return step


def bench_tfblock_profile() -> dict:
    """Per-op profile of a TF-Block step + the freeing policy's memory win.

    Two steps per policy: with the default activation freeing, step 1's
    saved tensors are released before step 2 records, so the peak retained
    watermark stays at ~one step; with ``retain_graph=True`` (graphs held
    alive) the activations pile up.  The freed/retained peak fraction is
    gated by ``scripts/bench_compare.py``.
    """
    block, x = _make_tf_block()

    def step(retain):
        block.zero_grad()
        x.zero_grad()
        out = block(x).sum()
        out.backward(retain_graph=retain)
        return out

    freeing = GraphProfiler()
    with freeing:
        for _ in range(2):
            step(retain=False)

    retaining = GraphProfiler()
    kept = []
    with retaining:
        for _ in range(2):
            kept.append(step(retain=True))

    summary = freeing.summary()
    op_totals = {
        name: {"calls": stats["calls"],
               "forward_s": stats["forward_s"],
               "backward_s": stats["backward_s"],
               "saved_bytes": stats["saved_bytes"]}
        for name, stats in sorted(summary["ops"].items())
    }
    facts = {
        "tfblock_profiled_op_types": len(op_totals),
        "tfblock_peak_saved_bytes_freed": freeing.peak_saved_bytes,
        "tfblock_peak_saved_bytes_retained": retaining.peak_saved_bytes,
        "tfblock_freed_over_retained":
            freeing.peak_saved_bytes / retaining.peak_saved_bytes,
    }
    return {"facts": facts, "op_totals": op_totals}


def case_attention_forward():
    set_seed(0)
    mha = MultiHeadAttention(32, 4, dropout=0.0)
    x = Tensor(RNG.standard_normal((8, 96, 32)))
    return lambda: mha(x)


def case_model_train_step(name: str):
    set_seed(0)
    model = build_model(name, seq_len=48, pred_len=24, c_in=7, preset="tiny")
    x = RNG.standard_normal((16, 48, 7))
    y = RNG.standard_normal((16, 24, 7))

    def step():
        model.zero_grad()
        mse_loss(model(Tensor(x)), y).backward()

    return step


# name -> (builder, rounds); rounds trade precision against harness runtime.
CASES = {
    "cwt_amplitude_forward_fft": (lambda: case_cwt_amplitude_forward("fft"), 20),
    "cwt_amplitude_forward_dense": (lambda: case_cwt_amplitude_forward("dense"), 20),
    "cwt_amplitude_forward_fft_T336": (
        lambda: case_cwt_amplitude_forward("fft", CWT_T_LONG), 10),
    "cwt_amplitude_forward_dense_T336": (
        lambda: case_cwt_amplitude_forward("dense", CWT_T_LONG), 5),
    "cwt_amplitude_forward_fft_f32": (case_cwt_amplitude_forward_f32, 20),
    "cwt_amplitude_grad_fft": (lambda: case_cwt_amplitude_grad("fft"), 10),
    "cwt_inverse": (case_cwt_inverse, 20),
    "conv2d_forward_backward": (case_conv2d_forward_backward, 10),
    "tfblock_forward_backward": (case_tfblock_forward_backward, 10),
    "attention_forward": (case_attention_forward, 10),
    **{f"train_step_{name}": ((lambda name=name: case_model_train_step(name)), 3)
       for name in BENCH_MODELS},
}


def _time_case(fn, rounds: int) -> dict:
    fn()  # warmup (also JIT-warms FFT plans / einsum paths)
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "min_s": min(samples),
        "mean_s": float(np.mean(samples)),
        "rounds": rounds,
    }


# ---------------------------------------------------------------------------
# Observability overhead: Trainer.fit with tracing off / stubbed out / on
# ---------------------------------------------------------------------------

OBS_FIT_ROUNDS = 5


def _obs_fit_harness():
    """A small TS3Net fit (2 epochs, list loaders) reused by every variant."""
    from repro.tasks.trainer import TrainConfig, Trainer

    set_seed(0)
    model = build_model("TS3Net", seq_len=32, pred_len=8, c_in=3,
                        preset="tiny")
    trainer = Trainer(model, TrainConfig(epochs=2, lr=1e-3))
    rng = np.random.default_rng(1)
    train_batches = [(rng.standard_normal((8, 32, 3)),
                      rng.standard_normal((8, 8, 3))) for _ in range(4)]
    val_batches = train_batches[:2]

    def step_fn(batch):
        x, y = batch
        pred = trainer.model(Tensor(x))
        return mse_loss(pred, y), pred.data, y, None

    return trainer, train_batches, val_batches, step_fn


def bench_obs() -> dict:
    """Cost of the tracing layer around ``Trainer.fit``.

    Three timings of the same tiny fit:

    * ``trainer_fit_uninstrumented`` — ``Trainer._fit(None, ...)`` directly,
      bypassing the ``obs.active()`` gate (the pre-observability code path);
    * ``trainer_fit_obs_off`` — the public ``fit()`` with no observer
      configured (the default for every user of the library);
    * ``trainer_fit_obs_on`` — ``fit()`` under a JSONL-writing observer.

    ``trainer_obs_disabled_overhead`` (off/uninstrumented) is the
    zero-cost-when-disabled contract and is gated at <= 2% by
    ``scripts/bench_compare.py``; the enabled ratio is informational.
    """
    from repro.obs import runtime as obs_runtime

    variants = {
        "trainer_fit_uninstrumented":
            lambda tr, a, b, fn: tr._fit(None, a, b, fn),
        "trainer_fit_obs_off":
            lambda tr, a, b, fn: tr.fit(a, b, fn),
        "trainer_fit_obs_on":
            lambda tr, a, b, fn: tr.fit(a, b, fn),
    }
    harness = {name: _obs_fit_harness() for name in variants}
    samples = {name: [] for name in variants}

    def run_one(name):
        trainer, train_b, val_b, step_fn = harness[name]
        if name == "trainer_fit_obs_on":
            start = time.perf_counter()
            variants[name](trainer, train_b, val_b, step_fn)
            return time.perf_counter() - start
        # off/uninstrumented variants must not see the observer
        previous = obs_runtime.swap(None)
        try:
            start = time.perf_counter()
            variants[name](trainer, train_b, val_b, step_fn)
            return time.perf_counter() - start
        finally:
            obs_runtime.swap(previous)

    with tempfile.TemporaryDirectory() as tmp:
        obs_runtime.configure(path=os.path.join(tmp, "bench_trace.jsonl"))
        try:
            for name in variants:            # warmup pass, untimed
                run_one(name)
            # Interleave rounds so slow machine-level drift (cache state,
            # frequency scaling) hits every variant equally instead of
            # biasing whichever ran last.
            for _ in range(OBS_FIT_ROUNDS):
                for name in variants:
                    samples[name].append(run_one(name))
        finally:
            obs_runtime.shutdown()

    timings = {
        name: {"min_s": min(vals), "mean_s": float(np.mean(vals)),
               "rounds": OBS_FIT_ROUNDS}
        for name, vals in samples.items()
    }
    baseline = timings["trainer_fit_uninstrumented"]
    disabled = timings["trainer_fit_obs_off"]
    enabled = timings["trainer_fit_obs_on"]
    facts = {
        "trainer_obs_disabled_overhead":
            disabled["min_s"] / baseline["min_s"],
        "trainer_obs_enabled_overhead":
            enabled["min_s"] / baseline["min_s"],
    }
    return {"timings": timings, "facts": facts}


# ---------------------------------------------------------------------------
# Trace store: footer-indexed reads over a rotated multi-segment log
# ---------------------------------------------------------------------------

TRACE_SEGMENT_BYTES = 128 << 10
TRACE_RESOURCE_RECORDS = 24_000
TRACE_SPAN_RECORDS = 400
TRACE_ROUNDS = 3


def bench_trace_store() -> dict:
    """Cost of ``repro trace --analyze`` on a rotated log: indexed vs full.

    Builds a rotated chain the way a long soak run would (a dense stream
    of ``resource`` samples with a burst of spans at the end), then times
    reading every record versus reading only the analysis kinds
    (spans/events) through the footer index.  Footers let whole
    resource-only segments be skipped without opening their bodies, so
    the indexed read must be decisively cheaper than the full scan —
    ``trace_indexed_over_full`` is gated by ``scripts/bench_compare.py``.
    """
    from repro.obs.events import record
    from repro.obs.report import ANALYSIS_KINDS
    from repro.obs.store import RotatingJsonlSink, TraceStore, load_records

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "soak.jsonl")
        sink = RotatingJsonlSink(path, max_segment_bytes=TRACE_SEGMENT_BYTES)
        ts = 1_000_000.0
        for i in range(TRACE_RESOURCE_RECORDS):
            ts += 0.05
            sink.emit(record("resource", "proc.sample",
                             {"rss_bytes": 100 << 20, "cpu_s": i * 0.01,
                              "cpu_pct": 37.5}, ts=ts))
        for i in range(TRACE_SPAN_RECORDS):
            ts += 0.01
            sink.emit(record("span_end", "http.request",
                             {"method": "POST", "path": "/v1/forecast",
                              "status_code": 200, "status": "ok"},
                             trace=f"t{i:06x}", span=f"s{i:06x}",
                             dur_s=0.004, ts=ts))
        sink.close()
        segments = len(TraceStore(path).segments())

        full = _time_case(lambda: load_records(path), TRACE_ROUNDS)
        indexed = _time_case(
            lambda: load_records(path, kinds=ANALYSIS_KINDS), TRACE_ROUNDS)
        spans_seen = len(load_records(path, kinds=ANALYSIS_KINDS))

    timings = {"trace_read_full": full, "trace_read_indexed": indexed}
    facts = {
        "trace_segments": segments,
        "trace_indexed_over_full": indexed["min_s"] / full["min_s"],
        "trace_indexed_reads_complete":
            bool(spans_seen == TRACE_SPAN_RECORDS),
    }
    return {"timings": timings, "facts": facts}


# ---------------------------------------------------------------------------
# Grid benchmark: an 8-cell tiny Table-IV slice through the engine
# ---------------------------------------------------------------------------

GRID_MODELS = ("DLinear", "LightTS")
GRID_DATASETS = ("ETTh1", "ETTh2")
GRID_HORIZONS = (12, 24)
GRID_WORKERS = 4
# The warm re-run takes ~1 ms, so one sample is mostly timer and scheduler
# noise; its timing is the minimum over this many re-runs.
GRID_WARM_ROUNDS = 5


def bench_grid() -> dict:
    """Time the engine's serial / parallel / cold-cache / warm-cache paths."""
    from repro.experiments.configs import get_scale
    from repro.experiments.engine import forecast_cell, run_grid
    from repro.experiments.runner import get_dataset

    specs = [forecast_cell(m, d, h, scale="tiny")
             for m in GRID_MODELS for d in GRID_DATASETS for h in GRID_HORIZONS]
    # Pre-warm the in-memory dataset cache so every timed path measures
    # training, not synthetic data generation.
    for spec in specs:
        get_dataset(spec.dataset, get_scale(spec.scale), seed=spec.seed)

    serial = run_grid(specs, workers=1)
    parallel = run_grid(specs, workers=GRID_WORKERS)
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = run_grid(specs, workers=1, cache_dir=cache_dir)
        warm_runs = [run_grid(specs, workers=1, cache_dir=cache_dir)
                     for _ in range(GRID_WARM_ROUNDS)]
    warm = min(warm_runs, key=lambda run: run.seconds)

    def entry(*runs):
        secs = [run.seconds for run in runs]
        return {"min_s": min(secs), "mean_s": float(np.mean(secs)),
                "rounds": len(secs)}

    timings = {
        "grid_tiny8_workers1": entry(serial),
        f"grid_tiny8_workers{GRID_WORKERS}": entry(parallel),
        "grid_tiny8_cold_cache": entry(cold),
        "grid_tiny8_warm_cache": entry(*warm_runs),
    }
    facts = {
        "grid_cells": len(specs),
        "grid_workers": GRID_WORKERS,
        "grid_parallel_speedup": serial.seconds / parallel.seconds,
        "grid_warm_over_cold": warm.seconds / cold.seconds,
        "grid_warm_cache_hits": warm.cache_hits,
        "grid_parallel_matches_serial": all(
            s["mse"] == p["mse"] and s["mae"] == p["mae"]
            for s, p in zip(serial.results, parallel.results)),
        "grid_usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1),
    }
    return {"timings": timings, "facts": facts}


def _verify_fft_vs_dense() -> dict:
    """FFT/dense agreement + speedup facts recorded next to the timings."""
    facts = {}
    for tag, seq_len in (("", CWT_T), ("_T336", CWT_T_LONG)):
        fft = CWTOperator.cached(seq_len, CWT_LAMBDA, engine="fft")
        dense = CWTOperator.cached(seq_len, CWT_LAMBDA, engine="dense")
        x = RNG.standard_normal((CWT_BATCH, seq_len))
        a_fft, a_dense = fft.amplitude_array(x), dense.amplitude_array(x)
        max_rel_err = float(np.max(np.abs(a_fft - a_dense) / np.abs(a_dense)))
        facts[f"fft_dense_max_rel_err{tag}"] = max_rel_err
        facts[f"fft_dense_agree_rtol_1e-8{tag}"] = bool(
            np.allclose(a_fft, a_dense, rtol=1e-8, atol=1e-12))
        facts[f"fft_bank_bytes{tag}"] = fft.nbytes
        facts[f"dense_bank_bytes{tag}"] = dense.nbytes
    return facts


def src_lines() -> int:
    """Lines of Python under ``src/`` (``find src -name '*.py' | xargs cat
    | wc -l``): the informational code-budget fact."""
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_suite(rounds_scale: float = 1.0, with_grid: bool = True) -> dict:
    timings = {}
    for name, (builder, rounds) in CASES.items():
        fn = builder()
        timings[name] = _time_case(fn, max(1, int(rounds * rounds_scale)))
        print(f"  {name:35s} min {timings[name]['min_s'] * 1e3:9.3f} ms  "
              f"mean {timings[name]['mean_s'] * 1e3:9.3f} ms")
    verification = _verify_fft_vs_dense()
    verification["src_lines"] = src_lines()
    tf_profile = bench_tfblock_profile()
    verification.update(tf_profile["facts"])
    for tag in ("", "_T336"):
        fwd_fft = timings[f"cwt_amplitude_forward_fft{tag}"]["min_s"]
        fwd_dense = timings[f"cwt_amplitude_forward_dense{tag}"]["min_s"]
        verification[f"cwt_amplitude_fft_speedup_vs_dense{tag}"] = (
            fwd_dense / fwd_fft)
    obs_bench = bench_obs()
    timings.update(obs_bench["timings"])
    verification.update(obs_bench["facts"])
    for name in obs_bench["timings"]:
        print(f"  {name:35s} min {timings[name]['min_s'] * 1e3:9.3f} ms  "
              f"mean {timings[name]['mean_s'] * 1e3:9.3f} ms")
    trace_bench = bench_trace_store()
    timings.update(trace_bench["timings"])
    verification.update(trace_bench["facts"])
    for name in trace_bench["timings"]:
        print(f"  {name:35s} min {timings[name]['min_s'] * 1e3:9.3f} ms  "
              f"mean {timings[name]['mean_s'] * 1e3:9.3f} ms")
    if with_grid:
        grid = bench_grid()
        timings.update(grid["timings"])
        verification.update(grid["facts"])
        for name in grid["timings"]:
            print(f"  {name:35s} min {timings[name]['min_s'] * 1e3:9.3f} ms")
    return {
        "meta": {
            "suite": "bench_substrate",
            "shapes": {"cwt": {"batch": CWT_BATCH, "seq_len": CWT_T,
                               "seq_len_long": CWT_T_LONG,
                               "num_scales": CWT_LAMBDA}},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "verification": verification,
        "timings": timings,
        "tfblock_op_profile": tf_profile["op_totals"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=OUTPUT_PATH,
                        help="where to write the JSON report")
    parser.add_argument("--rounds-scale", type=float, default=1.0,
                        help="multiply every case's round count (CI can "
                             "lower this for speed)")
    parser.add_argument("--no-grid", action="store_true",
                        help="skip the experiment-grid benchmark section")
    args = parser.parse_args(argv)
    print("bench_substrate: timing substrate hot paths "
          f"(CWT at B={CWT_BATCH}, T={CWT_T}, lambda={CWT_LAMBDA})")
    report = run_suite(rounds_scale=args.rounds_scale,
                       with_grid=not args.no_grid)
    for tag, label in (("", f"T={CWT_T}"), ("_T336", f"T={CWT_T_LONG}")):
        speedup = report["verification"][
            f"cwt_amplitude_fft_speedup_vs_dense{tag}"]
        err = report["verification"][f"fft_dense_max_rel_err{tag}"]
        print(f"  FFT vs dense CWT amplitude speedup ({label}): "
              f"{speedup:.1f}x (max rel err {err:.2e})")
    ver = report["verification"]
    print(f"  TF-Block profile: {ver['tfblock_profiled_op_types']} op types; "
          f"peak saved bytes {ver['tfblock_peak_saved_bytes_freed']:,} freed "
          f"vs {ver['tfblock_peak_saved_bytes_retained']:,} retained "
          f"({ver['tfblock_freed_over_retained']:.1%})")
    print(f"  obs overhead on Trainer.fit: disabled "
          f"{ver['trainer_obs_disabled_overhead']:.3f}x, enabled "
          f"{ver['trainer_obs_enabled_overhead']:.3f}x of uninstrumented")
    print(f"  trace store: {ver['trace_segments']} rotated segments, indexed "
          f"read at {ver['trace_indexed_over_full']:.1%} of the full scan "
          f"(complete: {ver['trace_indexed_reads_complete']})")
    print(f"  src/: {ver['src_lines']:,} lines of Python")
    if "grid_parallel_speedup" in ver:
        print(f"  grid: {ver['grid_cells']} cells, workers="
              f"{ver['grid_workers']} speedup {ver['grid_parallel_speedup']:.2f}x "
              f"on {ver['grid_usable_cpus']} usable cpu(s); warm cache at "
              f"{ver['grid_warm_over_cold']:.1%} of cold; parallel==serial: "
              f"{ver['grid_parallel_matches_serial']}")
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"  wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark wrappers over the same cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["fft", "dense"])
def test_cwt_amplitude_forward(benchmark, engine):
    fn = case_cwt_amplitude_forward(engine)
    out = benchmark(fn)
    assert out.shape == (CWT_BATCH, CWT_LAMBDA, CWT_T)


def test_cwt_amplitude_grad(benchmark):
    benchmark(case_cwt_amplitude_grad("fft"))


def test_cwt_inverse(benchmark):
    fn = case_cwt_inverse()
    out = benchmark(fn)
    assert out.shape == (CWT_BATCH, CWT_T)


def test_conv2d_forward_backward(benchmark):
    benchmark(case_conv2d_forward_backward())


def test_tfblock_forward_backward(benchmark):
    benchmark(case_tfblock_forward_backward())


def test_attention_forward(benchmark):
    fn = case_attention_forward()
    out = benchmark(fn)
    assert out.shape == (8, 96, 32)


@pytest.mark.parametrize("name", BENCH_MODELS)
def test_model_training_step(benchmark, name):
    """One optimiser-free forward+backward per model (Table IV cost driver)."""
    benchmark(case_model_train_step(name))


if __name__ == "__main__":
    raise SystemExit(main())
