"""The five end-to-end workloads; each run is a process of its own.

    python benchmarks/e2e/workloads.py --workload W --seed S --seconds N
        --scratch DIR [--trace] [--setup-only] [--smoke] [--trace-file F]

``run.py`` starts this script and reads two lines from it: ``E2E_READY``
(wall-clock time at which set-up ended and the first timed operation
began) and ``E2E_RESULT`` (the outcome).  ``--setup-only`` stops at
``E2E_READY``.

``--trace`` runs the same work with half of it traced through the hooks
in ``tracing.py``: every other training step, or a second serving phase
as long as the first.  The untraced half is the reference for
``trace.overhead`` and gives the untraced per-layer times (per-model
step times, eval batches, proxied latency).

Every workload runs the library with its defaults: eager execution,
float64, no compiled mode.  ``--seed`` fixes the data, the model
initialisation, the loader shuffle, the arrival schedule and the window
order.  A training workload runs its unit of work (a table cell) once,
and again only while another whole unit fits in ``--seconds``; the
serving phases last a set share of ``--seconds``.
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import itertools
import json
import math
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np                                                # noqa: E402

import procs                                                      # noqa: E402
import stats                                                      # noqa: E402
import tracing                                                    # noqa: E402
from tracing import EVAL, FORWARD, STEP, TimedLoader              # noqa: E402

BASELINES = ("PatchTST", "TimesNet", "MICN", "LightTS", "DLinear")
SERVE_DATASETS = ("ETTh1", "ETTm1", "ETTm2", "Weather")
MODEL = "ts3net"
SEQ_LEN, PRED_LEN, C_IN, SCALES = 48, 24, 7, 8     # the `small` scale
HOSTILE_EVERY = 50
BATCH = 16                                          # max_batch_size served
# serve_http's share of the seconds per server, in the order they run;
# the single server's run gives the end-to-end metrics.
HTTP_SHARES = {"single": 0.6, "cluster": 0.4}
# train_paper_lambda: batch 2 leaves room for 40 steps in a run, enough
# for a p75 with 10 steps beyond it.
LAMBDA_STEPS, LAMBDA_BATCH, LAMBDA_TAIL_Q = 40, 2, 75


class SetupComplete(Exception):
    """Raised at the first timed operation of a ``--setup-only`` run."""


@dataclasses.dataclass
class Context:
    seed: int
    seconds: float
    smoke: bool
    setup_only: bool
    scratch: str
    recorder: Optional[tracing.Recorder]
    ready_wall: Optional[float] = None

    @property
    def min_beyond(self) -> int:
        # Smoke runs only check that every metric is produced.
        return 0 if self.smoke else stats.MIN_BEYOND

    def ready(self, *_) -> None:
        """Mark the end of set-up (idempotent)."""
        if self.ready_wall is not None:
            return
        self.ready_wall = time.time()
        procs.emit(procs.READY, self.ready_wall)
        if self.setup_only:
            raise SetupComplete


@dataclasses.dataclass
class Outcome:
    """What a workload measured; ``run.py`` turns it into metrics."""

    latency_groups_ms: List[List[float]]   # one group per cell or phase
    tail_q: int
    throughput_per_s: float
    attempted: int
    failed: int
    checks: Dict[str, bool]
    rss_mb: float
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)


def _repeat(ctx: Context, unit: Callable[[], list]) -> list:
    """Run ``unit`` once, then again while one more run of it still fits
    in ``ctx.seconds`` (so a run never overshoots by a whole unit)."""
    start = time.perf_counter()
    done: list = []
    last = 0.0
    while not done or time.perf_counter() - start + last <= ctx.seconds:
        began = time.perf_counter()
        done.extend(unit())
        last = time.perf_counter() - began
    return done


def _p(values, q: int, ctx: Context) -> float:
    return stats.percentile(values, q, min_beyond=ctx.min_beyond)


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Cell:
    model: str
    fit: object = None
    loaders: tuple = ()

    @property
    def train(self) -> TimedLoader:
        return self.loaders[0]

    def finite(self) -> bool:
        fit = self.fit
        return all(math.isfinite(v) for v in
                   list(fit.train_losses) + list(fit.val_losses) + [fit.mse])


def fit_timed(ctx: Context, cell: Cell, spec, model, data, config,
              train_cfg):
    """``run_task`` with every loader wrapped in a :class:`TimedLoader`.

    With a recorder, every odd training step is traced: the hooks go on
    just before it and come off just after, outside the timed steps.
    Interleaving puts the untraced and traced steps under the same host
    conditions and at the same point of training.  Evaluation is never
    traced.
    """
    from repro.tasks.registry import run_task
    rec = ctx.recorder

    def tracing_on(on: bool) -> None:
        if rec is None or on == (cell.train.recorder is not None):
            return
        if on:
            rec.watch_model(model)
            rec.watch_training()
            cell.train.recorder = rec
        else:
            rec.remove()
            cell.train.recorder = None

    def on_fetch(step: int) -> None:
        if step == 0:
            ctx.ready()
        tracing_on(step % 2 == 1)

    def loaders(split, cfg):
        train, val, test = spec.loaders(split, cfg)
        cell.loaders = (TimedLoader(train, STEP, on_fetch),
                        TimedLoader(val, EVAL, lambda _: tracing_on(False)),
                        TimedLoader(test, EVAL, lambda _: tracing_on(False)))
        return cell.loaders

    try:
        cell.fit = run_task(dataclasses.replace(spec, loaders=loaders),
                            model, data, config, train_cfg)
    finally:
        if rec is not None:
            rec.remove()
    return cell.fit


def run_cell(ctx: Context, model: str, dataset: str, pred_len: int,
             scale: str) -> Cell:
    """One Table IV cell through ``run_forecast_cell`` itself, timed."""
    from repro.experiments import runner
    cell = Cell(model)
    real = runner.run_task
    runner.run_task = (lambda spec, m, data, config, train_cfg:
                       fit_timed(ctx, cell, spec, m, data, config, train_cfg))
    try:
        runner.run_forecast_cell(model, dataset, pred_len, scale=scale,
                                 seed=ctx.seed)
    finally:
        runner.run_task = real
    return cell


def _train_outcome(ctx: Context, cells: List[Cell], tail_q: int) -> Outcome:
    """End-to-end numbers from the untraced steps of every cell."""
    steps = sum(len(c.train.steps) for c in cells)
    failed = sum(len(c.train.steps) for c in cells if not c.finite())
    out = Outcome(
        latency_groups_ms=[[d * 1e3 for d in c.train.durations()]
                           for c in cells], tail_q=tail_q,
        throughput_per_s=(sum(c.train.rows() for c in cells)
                          / sum(sum(c.train.durations()) for c in cells)),
        attempted=steps, failed=failed,
        checks={"loss_and_test_mse_finite": failed == 0},
        rss_mb=procs.vm_hwm_mb(os.getpid()))
    if ctx.recorder is not None:
        out.layers.update(_traced_training_layers(ctx, cells))
    return out


def split_layers(mods: Dict, ops: Dict, peak_saved_bytes: int,
                 step_ms: Optional[float] = None) -> Dict[str, float]:
    """Per-layer metrics from ``tracing.module_layers``/``op_times`` output.

    ``step_ms`` is the forward + backward time the ops should account
    for; by default the model forward alone (serving has no backward).
    """
    layers = {f"autodiff.op.{key}_ms": value * 1e3
              for key, value in ops.items() if key != "calls"}
    layers["autodiff.ops_per_step"] = ops["calls"]
    layers["autodiff.peak_saved_mb"] = peak_saved_bytes / 2 ** 20
    if not mods["forwards"]:
        return layers
    model_s = mods["model"]
    layers["model.fwd_ms"] = model_s * 1e3
    layers["nn.inception.fwd_ms"] = mods["inception"] * 1e3
    layers["nn.inception.share"] = mods["inception"] / model_s
    for layer in tracing.LAYERS:
        layers[f"{layer}.fwd_ms"] = mods[layer] * 1e3
    op_ms = sum(v for k, v in layers.items() if k.startswith("autodiff.op."))
    layers["autodiff.op_coverage"] = op_ms / (step_ms or model_s * 1e3)
    return layers


def _recorded_layers(rec: tracing.Recorder, unit: str, units: int,
                     step_ms: Optional[float] = None) -> Dict[str, float]:
    return split_layers(tracing.module_layers(rec.spans, unit),
                        tracing.op_times(rec, unit, units),
                        rec.peak_saved_bytes, step_ms)


def _traced_training_layers(ctx: Context,
                            cells: List[Cell]) -> Dict[str, float]:
    rec = ctx.recorder
    phases = tracing.step_phases(rec.spans)
    layers = _recorded_layers(rec, STEP, phases["steps"],
                              (phases["fwd"] + phases["bwd"]) * 1e3)
    layers.update({
        "trainer.step_ms": phases["step"] * 1e3,
        "data.loader_ms": phases["loader"] * 1e3,
        "trainer.fwd_ms": phases["fwd"] * 1e3,
        "autodiff.bwd_ms": phases["bwd"] * 1e3,
        "optim.adam_ms": phases["adam"] * 1e3,
    })
    # Untraced: eval batches, and each model's median step.
    evals = [d for c in cells for loader in c.loaders[1:]
             for d in loader.durations()]
    layers["trainer.eval_batch_ms"] = float(np.mean(evals)) * 1e3
    for name in ("TS3Net",) + BASELINES:
        mine = [c for c in cells if c.model == name]
        if mine:
            layers[f"experiments.step_ms.{name}"] = stats.geometric_mean(
                [_p(c.train.durations(), 50, ctx) * 1e3 for c in mine])
            layers[f"tasks.test_mse.{name}"] = float(
                np.mean([c.fit.mse for c in mine]))
    layers["trace.overhead"] = stats.geometric_mean(
        [_p(c.train.durations(traced=True), 50, ctx)
         / _p(c.train.durations(), 50, ctx) for c in cells])
    return layers


def train_small(ctx: Context) -> Outcome:
    scale = "micro" if ctx.smoke else "small"
    setting = 8 if ctx.smoke else 24
    cells = _repeat(ctx, lambda: [run_cell(ctx, "TS3Net", "ETTh1", setting,
                                           scale)])
    return _train_outcome(ctx, cells, tail_q=90)


def train_paper_lambda(ctx: Context) -> Outcome:
    """Table III's lambda = 100 at lookback 96, horizon 96, tiny widths."""
    from repro.baselines import build_model
    from repro.data import load_dataset
    from repro.tasks.forecasting import FORECAST_SPEC, ForecastTask
    from repro.tasks.trainer import TrainConfig
    from repro.utils import set_seed

    steps, batch = (2, 2) if ctx.smoke else (LAMBDA_STEPS, LAMBDA_BATCH)

    def unit() -> List[Cell]:
        split = load_dataset("ETTh1", n_steps=2000, seed=ctx.seed)
        set_seed(ctx.seed)
        model = build_model("TS3Net", seq_len=96, pred_len=96, c_in=C_IN,
                            preset="tiny", num_scales=100)
        config = ForecastTask(seq_len=96, pred_len=96, batch_size=batch,
                              max_train_batches=steps, max_eval_batches=2,
                              seed=ctx.seed)
        cell = Cell("TS3Net")
        fit_timed(ctx, cell, FORECAST_SPEC, model, split, config,
                  TrainConfig(epochs=1, lr=1e-3))
        return [cell]

    return _train_outcome(ctx, _repeat(ctx, unit), tail_q=LAMBDA_TAIL_Q)


def train_baselines(ctx: Context) -> Outcome:
    scale = "micro" if ctx.smoke else "small"
    settings = (8,) if ctx.smoke else (24, 48)
    cells = _repeat(ctx, lambda: [run_cell(ctx, model, "ETTh1", h, scale)
                                  for model in BASELINES for h in settings])
    return _train_outcome(ctx, cells, tail_q=90)


# ----------------------------------------------------------------------
# Serving: shared pieces
# ----------------------------------------------------------------------
def make_checkpoint(ctx: Context) -> str:
    """A seeded `small`-scale TS3Net checkpoint (untrained: serving cost
    does not depend on the weights' values)."""
    from repro.baselines import build_model
    from repro.nn import save_checkpoint
    from repro.utils import set_seed
    set_seed(ctx.seed)
    model = build_model("TS3Net", seq_len=SEQ_LEN, pred_len=PRED_LEN,
                        c_in=C_IN, task="forecast", preset="tiny",
                        num_scales=SCALES)
    path = os.path.join(ctx.scratch, "ts3net.npz")
    save_checkpoint(model, path, metadata={
        "model": "TS3Net", "dataset": "ETTh1", "task": "forecast",
        "seq_len": SEQ_LEN, "pred_len": PRED_LEN, "c_in": C_IN,
        "preset": "tiny", "overrides": {"num_scales": SCALES}})
    return path


def signature_stable(model, window: np.ndarray) -> bool:
    """Whether ``batch_signature`` of the raw window matches the one the
    forward pass sees after its per-channel instance normalisation.

    ``TS3Net.batch_signature`` keys on the raw window, but the forward
    detects Eq. 2 periods after scaling each channel by its own std; when
    the two picks differ, stacking the window with others of the same key
    changes its output, breaking the repr-exact batching contract.  About
    a quarter of ETTm1/ETTm2/Weather windows (none of ETTh1's) do this,
    so the serving workloads draw only windows where the two agree.
    """
    normed = (window - window.mean(0)) / np.sqrt(window.var(0) + 1e-5)
    return model.batch_signature(window) == model.batch_signature(normed)


def serving_windows(model, seed: int, datasets, count: int) -> List[np.ndarray]:
    """``count`` signature-stable test-split lookback windows drawn from
    ``datasets`` in a seeded order."""
    from repro.data import load_dataset
    pools = []
    for name in datasets:
        test = load_dataset(name, n_steps=2000, seed=seed).test
        view = np.lib.stride_tricks.sliding_window_view(test, SEQ_LEN, axis=0)
        pools.append(view.transpose(0, 2, 1))
    pool = np.concatenate(pools)
    chosen: List[np.ndarray] = []
    for i in np.random.default_rng([seed, 7]).permutation(len(pool)):
        window = np.ascontiguousarray(pool[i])
        if signature_stable(model, window):
            chosen.append(window)
            if len(chosen) == count:
                break
    return chosen


def arrival_times(rate: float, duration: float, seed: int) -> np.ndarray:
    """Poisson arrival offsets (seconds) at ``rate``/s over ``duration``."""
    rng = np.random.default_rng([seed, 3])
    n = int(rate * duration * 2) + 16
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return times[times < duration]


def _bitwise_equal(rows, entry, windows) -> int:
    """How many served rows differ (``repr``) from ``single_forward``."""
    from repro.serving import single_forward
    return sum(repr(np.asarray(row, dtype=np.float64))
               != repr(single_forward(entry, w))
               for row, w in zip(rows, windows))


# ----------------------------------------------------------------------
# serve_batch: open loop into MicroBatcher.submit, then a backlog drain
# ----------------------------------------------------------------------
def serve_batch(ctx: Context) -> Outcome:
    from repro.serving import MicroBatcher, ModelRegistry

    rate = 50.0
    rec = ctx.recorder
    passes = 1 if rec is None else 2           # untraced, then traced
    loop_s = (1.0 if ctx.smoke else 0.7 * ctx.seconds) / passes
    backlog = 64 if ctx.smoke else 960
    registry = ModelRegistry(expect_task="forecast")
    entry = registry.load(MODEL, make_checkpoint(ctx))
    windows = serving_windows(entry.model, ctx.seed, SERVE_DATASETS, 256)
    schedule = arrival_times(rate, loop_s, ctx.seed)
    _warm(entry, windows)
    loops: List[Dict] = []
    batcher = None
    try:
        ctx.ready()
        for traced in range(passes):
            if traced:
                rec.watch_model(entry.model)
                rec.watch_ops()
                rec.wrap(MicroBatcher, "submit", "serving.batcher.submit",
                         unit="submit")
            batcher = MicroBatcher(registry, max_batch_size=BATCH,
                                   max_wait_ms=2.0, queue_size=1024)
            loops.append(_open_loop(batcher, windows, schedule))
            batcher.close(drain=True, timeout=30)
            if traced:
                rec.remove()
        batcher = MicroBatcher(registry, max_batch_size=BATCH,
                               max_wait_ms=2.0, queue_size=backlog,
                               start=False)
        drain = _drain(batcher, [windows[i % len(windows)]
                                 for i in range(backlog)])
        sample = windows[:32]
        futures = [batcher.submit(MODEL, w) for w in sample]
        rows = [f.result(timeout=30) for f in futures]
    finally:
        if batcher is not None:
            batcher.close(drain=True, timeout=30)
        if rec is not None:
            rec.remove()
    mismatched = _bitwise_equal(rows, entry, sample)
    failed = (sum(loop["failed"] for loop in loops) + drain["failed"]
              + mismatched)
    out = Outcome(
        latency_groups_ms=[_latencies_ms(loops[0])], tail_q=90,
        throughput_per_s=drain["rows"] / drain["seconds"],
        attempted=len(schedule) * passes + backlog + len(sample),
        failed=failed,
        checks={"batched_rows_repr_equal_single_forward": mismatched == 0,
                "no_failed_requests": failed == 0},
        rss_mb=procs.vm_hwm_mb(os.getpid()))
    if rec is not None:
        signatures = {tuple(entry.model.batch_signature(w)) for w in windows}
        out.layers.update({
            "serving.batcher.rows_per_forward": loops[0]["rows_per_forward"],
            "serving.batcher.drain_rows_per_forward":
                drain["rows_per_forward"],
            "serving.batcher.signatures": len(signatures),
            "trace.overhead": (_p(_latencies_ms(loops[1]), 50, ctx)
                               / _p(_latencies_ms(loops[0]), 50, ctx)),
        })
        out.layers.update(_traced_batcher_layers(ctx, rec, loops[1]))
    return out


def _latencies_ms(open_loop: Dict) -> List[float]:
    """Each request's latency, from when it was due to when it resolved."""
    return [(done - due) * 1e3 for due, _, _, done in open_loop["ok"]]


def _warm(entry, windows: List[np.ndarray]) -> None:
    """One forward at every batch size the batcher can form, so per-shape
    one-time costs (einsum paths, FFT plans) fall in set-up, as they do
    in a server that has been up for a while."""
    from repro.autodiff import Tensor, no_grad, precision
    with precision(entry.dtype), no_grad():
        for rows in range(1, BATCH + 1):
            entry.model(Tensor(np.stack(windows[:rows])))


def _open_loop(batcher, windows, schedule) -> Dict:
    """Submit on a Poisson schedule; each request is timed from when it
    was due, so a stall charges the wait to every request behind it."""
    from repro.serving import BatcherClosedError, QueueFullError
    records: List[list] = []
    failed = 0
    futures = []
    origin = time.perf_counter() + 0.01
    for i, offset in enumerate(schedule):
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        rec = [due, time.perf_counter(), None, None]
        try:
            future = batcher.submit(MODEL, windows[i % len(windows)])
        except (QueueFullError, BatcherClosedError):
            failed += 1
            continue
        rec[2] = time.perf_counter()
        future.add_done_callback(
            lambda f, r=rec: r.__setitem__(3, time.perf_counter()))
        futures.append(future)
        records.append(rec)
    for future in futures:
        if future.exception(timeout=30) is not None:
            failed += 1
    return {"ok": [r for r, f in zip(records, futures)
                   if f.exception() is None], "failed": failed,
            "rows_per_forward": _rows_per_forward(batcher)}


def _rows_per_forward(batcher) -> float:
    snap = batcher.metrics.snapshot()
    return snap["windows_total"] / max(snap["batches_total"], 1)


def _drain(batcher, windows) -> Dict:
    """Queue a backlog on a batcher that has not started, then start it
    and time until the last row resolves: drain capacity alone, with no
    submitting thread competing for the interpreter."""
    done = [0.0] * len(windows)
    futures = [batcher.submit(MODEL, window) for window in windows]
    for i, future in enumerate(futures):
        future.add_done_callback(
            lambda f, i=i: done.__setitem__(i, time.perf_counter()))
    start = time.perf_counter()
    batcher.start()
    failed = sum(f.exception(timeout=60) is not None for f in futures)
    return {"rows": len(windows) - failed, "seconds": max(done) - start,
            "failed": failed, "rows_per_forward": _rows_per_forward(batcher)}


def _traced_batcher_layers(ctx: Context, rec: tracing.Recorder,
                           open_loop: Dict) -> Dict[str, float]:
    forwards = sorted(tracing.model_forwards(rec.spans, FORWARD),
                      key=lambda s: s.end)
    layers = _recorded_layers(rec, FORWARD, len(forwards))
    rows = sum(s.attrs["rows"] for s in forwards)
    layers["serving.registry.forward_ms_per_row"] = (
        sum(s.dur for s in forwards) * 1e3 / max(rows, 1))
    submits = [s.dur * 1e3 for s in rec.spans
               if s.name == "serving.batcher.submit"]
    # A request resolves right after the forward that served it, on the
    # batcher thread: that forward is the last one to end before it.
    ends = [s.end for s in forwards]
    waits = []
    for _, _, submitted, done in open_loop["ok"]:
        k = int(np.searchsorted(ends, done, side="right")) - 1
        if k >= 0:
            waits.append(max(0.0, forwards[k].start - submitted) * 1e3)
    late = [(sent - due) * 1e3 for due, sent, _, _ in open_loop["ok"]]
    layers.update({
        "serving.batcher.submit_ms_p50": _p(submits, 50, ctx),
        "serving.batcher.queue_wait_ms_p50": _p(waits, 50, ctx),
        "serving.batcher.queue_wait_ms_p90": _p(waits, 90, ctx),
        "loadgen.late_ms_p90": _p(late, 90, ctx),
    })
    return layers


# ----------------------------------------------------------------------
# serve_http: the single HTTP server and a 1-worker cluster, each in a
# process group of its own, under the same one-connection closed loop
# ----------------------------------------------------------------------
class ServerProcess:
    """A ``server_child.py`` process: start, wait healthy, stop, measure."""

    def __init__(self, ctx: Context, checkpoint: str, mode: str,
                 traced: bool):
        self.mode = mode
        tag = f"{mode}-traced" if traced else mode
        self.obs_trace = (os.path.join(ctx.scratch, f"{tag}.jsonl")
                          if traced else "")
        self.layers = (os.path.join(ctx.scratch, f"{tag}-layers.json")
                       if traced and mode == "single" else "")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_child.py"),
             "--checkpoint", checkpoint, "--mode", mode,
             "--spool", os.path.join(ctx.scratch, f"spool-{tag}"),
             "--obs-trace", self.obs_trace, "--layers", self.layers],
            stdout=subprocess.PIPE, preexec_fn=os.setpgrp, cwd=ROOT)
        self.port: Optional[int] = None
        self.hwm_mb = 0.0

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        hello = procs.read_mark(self.proc, procs.SERVER, timeout_s)
        if hello is None:
            raise RuntimeError(f"{self.mode} server did not start")
        self.port = hello["port"]
        # Keep reading so a chatty child never blocks on a full pipe.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                status, _ = request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError(f"{self.mode} server never became healthy")

    def stop(self) -> bool:
        """Record the group's peak memory, drain, kill what is left."""
        self.hwm_mb = procs.group_hwm_mb(self.proc.pid)
        return procs.stop_group(self.proc)


def request(port: int, method: str, path: str, body: Optional[bytes] = None,
            timeout: float = 30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _body(window: np.ndarray) -> bytes:
    return json.dumps({"model": MODEL, "window": window.tolist()}).encode()


def _hostile(window: np.ndarray, k: int) -> np.ndarray:
    """A NaN window (even ``k``) or a window one row short (odd ``k``)."""
    if k % 2:
        return window[1:]
    bad = window.copy()
    bad[SEQ_LEN // 2, 0] = float("nan")
    return bad


def http_bodies(windows: List[np.ndarray]) -> List[tuple]:
    """``(body, hostile)`` pairs; every ``HOSTILE_EVERY``-th is hostile."""
    bodies = []
    for i, window in enumerate(windows):
        hostile = i % HOSTILE_EVERY == HOSTILE_EVERY - 1
        if hostile:
            window = _hostile(window, i // HOSTILE_EVERY)
        bodies.append((_body(window), hostile))
    return bodies


def _answer_ok(status: int, data: bytes, hostile: bool) -> bool:
    try:
        payload = json.loads(data)
    except ValueError:
        return False
    if hostile:
        return status == 400 and isinstance(payload.get("error"), dict)
    return (status == 200 and len(payload.get("prediction", ())) == PRED_LEN)


def closed_loop(port: int, bodies: List[tuple], seconds: float,
                warmup_s: float) -> Dict:
    """One keep-alive connection that sends its next body as soon as the
    previous answer arrives.  Requests started within the warm-up are not
    recorded.

    One client, not two: two fall into step with the batcher's 2 ms window
    in one of two ways (sharing batches, or alternating and each waiting
    the window out), and a run's median jumps between ~12.5 and ~16.5 ms
    depending on which.
    """
    start = time.perf_counter()
    record_from, stop_at = start + warmup_s, start + warmup_s + seconds
    results: List[tuple] = []
    conn = None
    for i in itertools.count():
        if time.perf_counter() >= stop_at:
            break
        if conn is None:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        body, hostile = bodies[i % len(bodies)]
        t0 = time.perf_counter()
        try:
            conn.request("POST", "/v1/forecast", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            ok = _answer_ok(resp.status, resp.read(), hostile)
            status, trace = resp.status, resp.getheader("X-Trace-Id")
        except (OSError, http.client.HTTPException):
            conn.close()
            conn = None
            ok, status, trace = False, -1, None
        t1 = time.perf_counter()
        if t0 >= record_from:
            results.append((t0, t1, hostile, ok, status, trace))
    if conn is not None:
        conn.close()
    good = [r for r in results if r[3] and not r[2]]
    span = (results[-1][1] - results[0][0]) if results else 0.0
    return {
        "latencies_ms": [(t1 - t0) * 1e3 for t0, t1, *_ in good],
        "by_trace": {r[5]: (r[1] - r[0]) * 1e3 for r in good if r[5]},
        "throughput": len(good) / span if span else 0.0,
        "attempted": len(results),
        "failed": sum(not r[3] for r in results),
        "rejected_400": sum(r[4] == 400 for r in results),
    }


def _check_server(port: int, entry, windows: List[np.ndarray]) -> Dict:
    """After the timed phase: a batched request must match
    ``single_forward`` bit for bit, and hostile bodies must get a 400."""
    status, data = request(port, "POST", "/v1/forecast", json.dumps(
        {"model": MODEL, "windows": [w.tolist() for w in windows]}).encode())
    rows = json.loads(data).get("predictions", []) if status == 200 else []
    mismatched = (len(windows) if len(rows) != len(windows)
                  else _bitwise_equal(rows, entry, windows))
    hostile = [_body(_hostile(windows[0], k)) for k in (0, 1)]
    rejected = 0
    for body in hostile:
        status, data = request(port, "POST", "/v1/forecast", body)
        rejected += _answer_ok(status, data, hostile=True)
    return {"mismatched": mismatched, "hostile_ok": rejected == len(hostile),
            "attempted": len(windows) + len(hostile),
            "failed": mismatched + len(hostile) - rejected}


def _scrape_rows_per_forward(port: int) -> float:
    _, text = request(port, "GET", "/metrics")
    text = text.decode()
    total = re.search(r"^repro_batch_size_sum (\S+)$", text, re.M)
    count = re.search(r"^repro_batch_size_count (\S+)$", text, re.M)
    if not total or not count or float(count.group(1)) == 0:
        return 0.0
    return float(total.group(1)) / float(count.group(1))


def _http_pass(ctx: Context, checkpoint: str, traced: bool, bodies,
               seconds: float, entry, sample: List[np.ndarray]) -> Dict:
    """Start the single server and the cluster, drive each with the closed
    loop for its share of ``seconds``, check their answers, then drain
    and stop both."""
    servers = [ServerProcess(ctx, checkpoint, mode, traced)
               for mode in HTTP_SHARES]
    try:
        for server in servers:
            server.wait_healthy()
        ctx.ready()
        runs = {s.mode: closed_loop(s.port, bodies,
                                    HTTP_SHARES[s.mode] * seconds,
                                    0.1 if ctx.smoke else 0.3)
                for s in servers}
        rows_per_forward = _scrape_rows_per_forward(servers[0].port)
        checks = [_check_server(s.port, entry, sample) for s in servers]
    finally:
        clean = all([server.stop() for server in servers])
    return {"servers": servers, "runs": runs, "checks": checks,
            "rows_per_forward": rows_per_forward, "clean": clean,
            "attempted": sum(r["attempted"] for r in runs.values())
            + sum(c["attempted"] for c in checks),
            "failed": sum(r["failed"] for r in runs.values())
            + sum(c["failed"] for c in checks)}


def serve_http(ctx: Context) -> Outcome:
    from repro.serving import ModelRegistry

    checkpoint = make_checkpoint(ctx)
    entry = ModelRegistry(expect_task="forecast").load(MODEL, checkpoint)
    windows = serving_windows(entry.model, ctx.seed, ("ETTh1",), 200)
    bodies = http_bodies(windows)
    sample = [w for w, (_, bad) in zip(windows, bodies) if not bad][:16]
    traced_passes = [False] if ctx.recorder is None else [False, True]
    seconds = (1.0 if ctx.smoke else ctx.seconds) / len(traced_passes)
    passes = [_http_pass(ctx, checkpoint, traced, bodies, seconds, entry,
                         sample) for traced in traced_passes]
    base = passes[0]
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(p["failed"] for p in passes)
    out = Outcome(
        latency_groups_ms=[base["runs"]["single"]["latencies_ms"]],
        tail_q=90, throughput_per_s=base["runs"]["single"]["throughput"],
        attempted=sum(p["attempted"] for p in passes), failed=failed,
        checks={"responses_repr_equal_single_forward":
                    all(c["mismatched"] == 0 for c in checks),
                "hostile_bodies_get_400": all(c["hostile_ok"]
                                              for c in checks),
                "no_failed_requests": failed == 0,
                "server_groups_stopped": all(p["clean"] for p in passes)},
        rss_mb=sum(s.hwm_mb for s in base["servers"]))
    if ctx.recorder is not None:
        proxied = base["runs"]["cluster"]
        out.layers.update({
            "serving.server.rows_per_forward": base["rows_per_forward"],
            "serving.server.rejected_400": sum(
                r["rejected_400"] for r in base["runs"].values()),
            "serving.cluster.proxied_p50_ms": _p(proxied["latencies_ms"], 50,
                                                 ctx),
            "serving.cluster.proxied_tail_ms": _p(proxied["latencies_ms"],
                                                  90, ctx),
            "serving.cluster.proxied_rps": proxied["throughput"],
            "trace.overhead": (
                _p(passes[1]["runs"]["single"]["latencies_ms"], 50, ctx)
                / _p(base["runs"]["single"]["latencies_ms"], 50, ctx)),
        })
        out.layers.update(_traced_server_layers(ctx, passes[1]["servers"],
                                                passes[1]["runs"]))
    return out


def _traced_server_layers(ctx: Context, servers, runs) -> Dict[str, float]:
    """Per-layer split from the servers' own spans and the child's hooks."""
    from repro.obs import analysis
    from repro.obs.store import load_records
    single, cluster = servers
    with open(single.layers) as fh:
        split = json.load(fh)
    layers = split_layers(split["modules"], split["ops"],
                          split["peak_saved_bytes"])
    layers["serving.registry.forward_ms_per_row"] = (
        split["forward_s"] * 1e3 / max(split["rows"], 1))

    # Only timed, successful forecasts: their trace ids came back to the
    # client in X-Trace-Id.
    client = runs["single"]["by_trace"]
    ok = [r for r in analysis.request_attributions(
        load_records(single.obs_trace)) if r["trace"] in client]
    for part in ("queue_wait", "batch_execute", "postprocess"):
        layers[f"serving.server.{part}_ms_p50"] = _p(
            [r["components"][part] * 1e3 for r in ok], 50, ctx)
    layers["serving.server.outside_span_ms_p50"] = _p(
        [client[r["trace"]] - r["total_s"] * 1e3 for r in ok], 50, ctx)

    client = runs["cluster"]["by_trace"]
    rows = [r for r in analysis.request_attributions(
        load_records(cluster.obs_trace))
        if r["tier"] == "cluster" and r["trace"] in client]
    layers["serving.cluster.proxy_hop_ms_p50"] = _p(
        [r["components"]["proxy_hop"] * 1e3 for r in rows], 50, ctx)
    layers["serving.cluster.coverage"] = _p(
        [r["coverage"] for r in rows], 50, ctx)
    return layers


WORKLOADS = {
    "train_small": train_small,
    "train_paper_lambda": train_paper_lambda,
    "train_baselines": train_baselines,
    "serve_batch": serve_batch,
    "serve_http": serve_http,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.scratch, exist_ok=True)
    ctx = Context(seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                  setup_only=args.setup_only, scratch=args.scratch,
                  recorder=tracing.Recorder() if args.trace else None)
    try:
        outcome = WORKLOADS[args.workload](ctx)
    except SetupComplete:
        outcome = None
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    if ctx.recorder is not None and args.trace_file:
        ctx.recorder.write(args.trace_file)
    result = {"setup_only": True} if outcome is None else dataclasses.asdict(
        outcome)
    result["leftover_children"] = procs.live_children(os.getpid())
    procs.emit(procs.RESULT, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
