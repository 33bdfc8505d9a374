"""Command-line interface: train / evaluate / decompose without writing code.

The ``--task`` choices, the per-task inference subcommands (``forecast``,
``impute``, ``detect``, ``classify``), and ``serve --task`` are all derived
from the :mod:`repro.tasks.registry` — adding a task there adds it here.

Examples::

    python -m repro list
    python -m repro train --model TS3Net --dataset ETTh1 --epochs 3 \
        --save ts3net_etth1.npz
    python -m repro train --model DLinear --dataset Weather --task imputation
    python -m repro train --model TS3Net --task classification
    python -m repro forecast --checkpoint ts3net_etth1.npz --dataset ETTh1
    python -m repro serve --checkpoint ts3net_etth1.npz --port 8321
    python -m repro decompose --dataset ETTh2 --window 192

The paper's tables run through the experiment-grid engine (parallel
workers + persistent result cache)::

    python -m repro table4 --scale tiny --workers 4 --cache-dir .repro_cache
    python -m repro table8 --datasets ETTh1 --workers 2
    python -m repro sensitivity --knob num_blocks --scale tiny
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .autodiff import format_profile
from .baselines.registry import ABLATION_NAMES, MODEL_NAMES, TSD_NAMES
from .data.specs import FORECAST_DATASETS
from .data.dataset import load_dataset
from .nn import (
    load_checkpoint, peek_metadata, save_checkpoint,
    validate_checkpoint_metadata,
)
from .obs import report as obs_report
from .obs import runtime as obs_runtime
from .tasks import (
    TrainConfig, get_task, rebuild_from_metadata, run_task, task_names,
    task_specs,
)
from .utils import set_seed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="ETTh1",
                        choices=list(FORECAST_DATASETS))
    parser.add_argument("--seq-len", type=int, default=48)
    parser.add_argument("--pred-len", type=int, default=24)
    parser.add_argument("--n-steps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)


def cmd_list(_args) -> int:
    print("models:    " + ", ".join(MODEL_NAMES))
    print("ablations: " + ", ".join(ABLATION_NAMES + TSD_NAMES))
    print("datasets:  " + ", ".join(FORECAST_DATASETS))
    print("tasks:     " + ", ".join(task_names()))
    return 0


def cmd_train(args) -> int:
    spec = get_task(args.task)
    set_seed(args.seed)
    config = spec.make_config(args.seq_len, getattr(args, spec.setting_arg),
                              batch_size=args.batch_size,
                              max_train_batches=args.max_batches,
                              max_eval_batches=args.max_batches,
                              seed=args.seed)
    if spec.needs_split:
        data = load_dataset(args.dataset, n_steps=args.n_steps,
                            seed=args.seed)
    else:
        data = spec.load_data(args.dataset, args.n_steps, args.seed, config)
    c_in = spec.channels(data)
    model = spec.build(args.model, config, c_in=c_in, preset=args.preset)
    print(f"{args.model} on {args.dataset} ({spec.name}): "
          f"{model.num_parameters():,} parameters")

    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, verbose=True,
                      profile=args.profile)
    result = run_task(spec, model, data, config, cfg)
    print(f"{spec.format_result(result)} "
          f"({result.epochs_run} epochs, {result.seconds:.0f}s)")

    if args.profile and result.profile is not None:
        print()
        print(model.parameter_table())
        print()
        print(format_profile(result.profile))

    if args.save:
        save_checkpoint(model, args.save, metadata={
            "model": args.model, "dataset": args.dataset, "task": spec.name,
            "seq_len": args.seq_len, "pred_len": spec.out_len(config),
            "c_in": c_in, "preset": args.preset,
            **spec.checkpoint_extra(model, config),
            **result.metrics,
        })
        print(f"checkpoint written to {args.save}")
    return 0


def cmd_infer(spec, args) -> int:
    """Offline inference from a checkpoint, for any task in the registry.

    The same validation the serving ModelRegistry applies: reject bare
    archives and checkpoints trained for a different task (an imputation
    model re-built here would plot garbage as a "forecast").
    """
    try:
        meta = validate_checkpoint_metadata(
            peek_metadata(args.checkpoint), expect_task=spec.name,
            source=args.checkpoint)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    set_seed(args.seed)
    model = rebuild_from_metadata(meta)
    load_checkpoint(model, args.checkpoint)
    model.eval()
    print(spec.run_infer(args, meta, model))
    return 0


TABLE_COMMANDS = ("table2", "table4", "table5", "table6", "table7",
                  "table8", "table9", "sensitivity")


def _extract_trace_flag(rest) -> tuple:
    """Split ``--trace PATH`` / ``--trace=PATH`` out of a raw argv list."""
    out, trace_path = [], None
    it = iter(rest)
    for arg in it:
        if arg == "--trace":
            trace_path = next(it, None)
            if trace_path is None:
                raise SystemExit("error: --trace needs a PATH argument")
        elif arg.startswith("--trace="):
            trace_path = arg.split("=", 1)[1]
        else:
            out.append(arg)
    return out, trace_path


def cmd_table(command: str, rest) -> int:
    """Forward a ``tableN``/``sensitivity`` subcommand to its module CLI.

    The experiment modules own their argument parsing (``--scale``,
    ``--workers``, ``--cache-dir``, per-table subset flags, ...); the top
    level routes the remaining argv through, after peeling off the shared
    ``--trace PATH`` flag (grid runs emit one ``grid.cell`` span per cell).
    """
    from .experiments import sensitivity as sensitivity_mod
    from .experiments import table2, table4, table5, table6, table7, table8, table9
    modules = {"table2": table2, "table4": table4, "table5": table5,
               "table6": table6, "table7": table7, "table8": table8,
               "table9": table9, "sensitivity": sensitivity_mod}
    rest, trace_path = _extract_trace_flag(rest)
    if not trace_path:
        modules[command].main(list(rest))
        return 0
    obs_runtime.configure(path=trace_path, resource_interval_s=0.5)
    try:
        modules[command].main(list(rest))
    finally:
        obs_runtime.shutdown()
    return 0


def cmd_serve(args) -> int:
    from .serving import ModelRegistry, ServingConfig, build_server, run_server

    names = list(args.name or [])
    if names and len(names) != len(args.checkpoint):
        print(f"error: got {len(names)} --name for "
              f"{len(args.checkpoint)} --checkpoint", file=sys.stderr)
        return 1

    serving = ServingConfig(
        host=args.host, port=args.port, max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms, queue_size=args.queue_size,
        default_timeout_ms=args.timeout_ms, slo=args.slo)

    if args.workers > 1:
        return _serve_cluster(args, names, serving)

    registry = ModelRegistry(expect_task=args.task)
    for i, path in enumerate(args.checkpoint):
        name = names[i] if names else peek_metadata(path).get("model", path)
        try:
            entry = registry.load(name, path)
        except (ValueError, KeyError, OSError) as err:
            print(f"error loading {path}: {err}", file=sys.stderr)
            return 1
        print(f"loaded {name!r} from {path} "
              f"({entry.model.num_parameters():,} parameters)")

    server = build_server(serving, registry)
    return run_server(server)


def _serve_cluster(args, names, serving) -> int:
    from .serving.cluster import (
        ClusterConfig, WorkerStartupError, build_cluster, run_cluster,
    )

    checkpoints = {}
    for i, path in enumerate(args.checkpoint):
        name = names[i] if names else peek_metadata(path).get("model", path)
        checkpoints[name] = path
    config = ClusterConfig(
        workers=args.workers, host=args.host, port=args.port,
        spool_dir=args.spool_dir, spread=args.spread, serving=serving,
        expect_task=args.task,
        trace_path=getattr(args, "trace", None), slo=args.slo)
    try:
        server = build_cluster(config, checkpoints)
    except (ValueError, KeyError, OSError, WorkerStartupError) as err:
        print(f"error starting cluster: {err}", file=sys.stderr)
        return 1
    return run_cluster(server)


def cmd_trace(args) -> int:
    """Aggregate a JSONL run trace into human-readable (or JSON) reports.

    With no section flag: the classic full report.  ``--analyze``,
    ``--flamegraph``, and ``--slo`` select the analysis sections (and
    load only span/event kinds, so footer-indexed rotated logs skip
    segments holding nothing relevant); ``--json`` prints one document
    mirroring every rendered section.
    """
    from .obs import analysis as obs_analysis
    from .obs import slo as obs_slo
    analysis_only = (args.analyze or args.slo
                     or args.flamegraph is not None) and not args.json
    kinds = obs_report.ANALYSIS_KINDS if analysis_only else None
    try:
        records = obs_report.load(args.path, kinds=kinds)
    except (OSError, ValueError) as err:
        print(f"error reading {args.path}: {err}", file=sys.stderr)
        return 1
    if not records:
        print(f"error: {args.path} contains no events", file=sys.stderr)
        return 1
    if args.json:
        import json as _json
        print(_json.dumps(obs_report.report_data(records), indent=2,
                          sort_keys=True, default=str))
        return 0
    sections = []
    if args.analyze:
        body = obs_analysis.render_analysis(records)
        sections.append(("critical path",
                         body or "(no attributable requests or fits)"))
    if args.slo:
        body = obs_slo.render_slo(records)
        sections.append(("slo", body or "(no request stream to evaluate)"))
    if args.flamegraph is not None:
        folded = obs_analysis.render_folded(records)
        if args.flamegraph == "-":
            sections.append(("flamegraph (folded stacks)", folded))
        else:
            with open(args.flamegraph, "w", encoding="utf-8") as fh:
                fh.write(folded + ("\n" if folded else ""))
            print(f"folded stacks written to {args.flamegraph}")
    if sections:
        print("\n\n".join(f"== {title} ==\n{body}"
                          for title, body in sections))
        return 0
    print(obs_report.render_report(records))
    return 0


def cmd_top(args) -> int:
    """Live terminal dashboard over a serving ``/metrics`` endpoint."""
    from .obs import top as obs_top
    url = args.url
    if "://" not in url:
        url = f"http://{url}"
    if not url.rstrip("/").endswith("/metrics"):
        url = url.rstrip("/") + "/metrics"
    frames = obs_top.run_top(url, interval_s=args.interval,
                             iterations=args.iterations,
                             clear=not args.no_clear)
    return 0 if frames > 0 else 1


def cmd_decompose(args) -> int:
    from .experiments.figures import figure5
    fig = figure5(dataset=args.dataset, scale="small",
                  window_len=args.window, num_scales=args.num_scales,
                  csv_path=args.csv)
    print(fig.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list models and datasets")

    train = sub.add_parser("train", help="train a model on a dataset")
    _add_common(train)
    train.add_argument("--model", default="TS3Net")
    train.add_argument("--task", default="forecast",
                       choices=list(task_names()))
    train.add_argument("--preset", default="tiny", choices=["tiny", "paper"])
    train.add_argument("--epochs", type=int, default=3)
    train.add_argument("--lr", type=float, default=2e-3)
    train.add_argument("--batch-size", type=int, default=16)
    train.add_argument("--max-batches", type=int, default=30)
    train.add_argument("--mask-ratio", type=float, default=0.25)
    train.add_argument("--anomaly-ratio", type=float, default=0.01)
    train.add_argument("--num-classes", type=int, default=3)
    train.add_argument("--save", default=None, help="checkpoint path (.npz)")
    train.add_argument("--profile", action="store_true",
                       help="record per-op/per-module telemetry during the "
                            "fit and print the parameter + profile tables")
    train.add_argument("--trace", default=None, metavar="PATH",
                       help="write a JSONL run trace (spans, epoch metrics, "
                            "resource samples) for `repro trace PATH`")

    # One offline-inference subcommand per registered task (`forecast`,
    # `impute`, `detect`, `classify`); each spec owns its extra flags.
    for spec in task_specs():
        infer = sub.add_parser(spec.infer_command, help=spec.infer_help)
        infer.add_argument("--checkpoint", required=True)
        infer.add_argument("--seed", type=int, default=0)
        spec.add_infer_args(infer)

    serve = sub.add_parser(
        "serve", help="serve checkpoints over HTTP with micro-batching")
    serve.add_argument("--checkpoint", action="append", required=True,
                       help="checkpoint (.npz) to serve; repeatable")
    serve.add_argument("--task", default=None, choices=list(task_names()),
                       help="only accept checkpoints trained for this task "
                            "(default: serve any registered task)")
    serve.add_argument("--name", action="append", default=None,
                       help="serving name for the matching --checkpoint "
                            "(default: the checkpoint's model name)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--max-batch-size", type=int, default=16,
                       help="flush a micro-batch at this many windows")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="flush a partial batch after this long")
    serve.add_argument("--queue-size", type=int, default=256,
                       help="admission-control bound; beyond it requests "
                            "are shed with a 503")
    serve.add_argument("--timeout-ms", type=float, default=2000.0,
                       help="default per-request deadline")
    serve.add_argument("--workers", type=int, default=1,
                       help="serve through a pre-fork cluster of this many "
                            "worker processes sharing copy-on-write weight "
                            "mmaps (1 = single-process server)")
    serve.add_argument("--spool-dir", default=None,
                       help="directory for published weight blobs in "
                            "cluster mode (default: a fresh temp dir)")
    serve.add_argument("--spread", type=int, default=0,
                       help="warm-set width for consistent-hash routing "
                            "(0 = spread each model over all workers)")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write a JSONL run trace with one span per "
                            "request (trace id echoed in X-Trace-Id)")
    serve.add_argument("--slo", default=None, metavar="CONF",
                       help="track SLOs with burn-rate alerting: 'default' "
                            "for the stock availability + latency pair, or "
                            "a JSON objectives file (budget gauges join "
                            "/metrics; alerts land in the trace)")

    trace = sub.add_parser(
        "trace", help="render a JSONL run trace written by --trace")
    trace.add_argument("path", help="JSONL trace file to aggregate "
                                    "(rotated segment chains included)")
    trace.add_argument("--analyze", action="store_true",
                       help="critical-path attribution: split each "
                            "request's wall-clock into proxy hop / queue "
                            "wait / batch execute / postprocess, and each "
                            "profiled fit into per-op time")
    trace.add_argument("--flamegraph", nargs="?", const="-", default=None,
                       metavar="OUT",
                       help="export folded-stack flamegraph text to OUT "
                            "(default: stdout); feed to flamegraph.pl or "
                            "speedscope")
    trace.add_argument("--slo", action="store_true",
                       help="replay the request stream through the SLO "
                            "engine: burn rates per window, budget "
                            "remaining, logged alert transitions")
    trace.add_argument("--json", action="store_true",
                       help="print one machine-readable JSON document "
                            "mirroring every rendered section")

    top = sub.add_parser(
        "top", help="live dashboard polling a serving /metrics endpoint")
    top.add_argument("url", help="server base URL or /metrics URL "
                                 "(e.g. http://127.0.0.1:8321)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=None,
                     help="render this many frames then exit "
                          "(default: run until interrupted)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of repainting the screen "
                          "(CI logs, piping to a file)")

    decompose = sub.add_parser("decompose",
                               help="triple-decompose a dataset window")
    decompose.add_argument("--dataset", default="ETTh1")
    decompose.add_argument("--window", type=int, default=192)
    decompose.add_argument("--num-scales", type=int, default=16)
    decompose.add_argument("--csv", default=None)

    for name in TABLE_COMMANDS:
        table = sub.add_parser(
            name, add_help=False,
            help=f"run the paper's {name} grid via the engine "
                 f"(--workers/--cache-dir; see `{name} --help`)")
        table.add_argument("rest", nargs=argparse.REMAINDER,
                           help="arguments for the experiment module")

    return parser


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Table subcommands are routed before the main parser: REMAINDER does
    # not capture leading options (e.g. `table4 --scale tiny`), and the
    # experiment modules own that argument parsing anyway.
    if argv and argv[0] in TABLE_COMMANDS:
        return cmd_table(argv[0], argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {"list": cmd_list, "train": cmd_train,
                "decompose": cmd_decompose,
                "serve": cmd_serve, "trace": cmd_trace, "top": cmd_top}
    for spec in task_specs():
        handlers[spec.infer_command] = functools.partial(cmd_infer, spec)
    handler = handlers[args.command]
    if not getattr(args, "trace", None) or args.command == "trace":
        return handler(args)
    obs_runtime.configure(path=args.trace, resource_interval_s=0.5)
    try:
        return handler(args)
    finally:
        obs_runtime.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
