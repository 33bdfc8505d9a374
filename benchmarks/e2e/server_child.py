"""Serve one TS3Net checkpoint until SIGTERM, for the ``serve_http`` workload.

    python benchmarks/e2e/server_child.py --checkpoint CK --mode single|cluster
        --spool DIR [--obs-trace JSONL] [--layers OUT]

``single`` runs ``build_server`` + ``run_server``; ``cluster`` runs
``build_cluster(workers=1)`` + ``run_cluster``.  Once listening it prints
one ``E2E_SERVER {"port": ...}`` line.  ``--obs-trace`` turns on the
library's own span tracing (what ``repro serve --trace`` does);
``--layers`` (single mode) additionally times every module and op of the
served model and writes the per-forward split to OUT after the drain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import procs      # noqa: E402
import tracing    # noqa: E402
from repro.obs import runtime as obs_runtime                      # noqa: E402
from repro.serving import (                                       # noqa: E402
    MicroBatcher, ModelRegistry, ServingConfig, build_server, run_server,
)

MODEL = "ts3net"


def serving_config() -> ServingConfig:
    return ServingConfig(host="127.0.0.1", port=0, max_batch_size=16,
                         max_wait_ms=2.0, queue_size=256)


def serve_single(args) -> None:
    registry = ModelRegistry(expect_task="forecast")
    registry.load(MODEL, args.checkpoint)
    recorder = None
    if args.layers:
        recorder = tracing.Recorder()
        recorder.watch_model(registry.get(MODEL).model)
        recorder.watch_ops()
        recorder.wrap(MicroBatcher, "submit", "serving.batcher.submit",
                      unit="submit")
    server = build_server(serving_config(), registry)
    procs.emit(procs.SERVER, {"port": server.server_address[1]})
    run_server(server, verbose=False)
    if recorder is not None:
        recorder.remove()
        forwards = tracing.model_forwards(recorder.spans, tracing.FORWARD)
        with open(args.layers, "w") as fh:
            json.dump({
                "modules": tracing.module_layers(recorder.spans,
                                                 tracing.FORWARD),
                "ops": tracing.op_times(recorder, tracing.FORWARD,
                                        len(forwards)),
                "rows": sum(s.attrs["rows"] for s in forwards),
                "forward_s": sum(s.dur for s in forwards),
                "peak_saved_bytes": recorder.peak_saved_bytes,
            }, fh)


def serve_cluster(args) -> None:
    from repro.serving.cluster import ClusterConfig, build_cluster, run_cluster
    config = ClusterConfig(workers=1, host="127.0.0.1", port=0,
                           spool_dir=args.spool, serving=serving_config(),
                           expect_task="forecast",
                           trace_path=args.obs_trace or None)
    server = build_cluster(config, {MODEL: args.checkpoint})
    procs.emit(procs.SERVER, {"port": server.server_address[1]})
    run_cluster(server, verbose=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--mode", choices=("single", "cluster"),
                        required=True)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--obs-trace", default="")
    parser.add_argument("--layers", default="")
    args = parser.parse_args(argv)
    if args.obs_trace:
        obs_runtime.configure(path=args.obs_trace)
    try:
        if args.mode == "single":
            serve_single(args)
        else:
            serve_cluster(args)
    finally:
        obs_runtime.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
