"""End-to-end TS3Net benchmark: run one workload once and report it.

    python3 benchmarks/e2e/run.py --workload W --seed S [--seconds N]
        [--trace 0|1] [--out F] [--smoke]

Run from the root of a checkout.  The workload runs in a process of its
own (``workloads.py``), so peak memory and import state never leak from
one workload into the next.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
set-up runs three times (twice with ``--setup-only``) and ``setup_s`` is
their median.  ``--trace 1`` runs the workload once, its second half
through the benchmark's hooks, and prints the per-layer metrics, with
``trace.overhead`` = traced / untraced median latency.  Both print every
metric as ``name value unit``, then the correctness verdict, and as the
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only if every check passed.

``--out F`` (default ``.e2e_out/<workload>-seed<S>-trace<T>.json``)
receives the whole record; a traced run also writes its spans to
``F.trace.json``.  ``--smoke`` shrinks every workload to seconds, for the
tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import procs   # noqa: E402
import stats   # noqa: E402

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".e2e_out")
SETUP_RUNS = 3
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    """A workload process crashed, hung, or reported nothing."""


def checkout_problem() -> Optional[str]:
    """Why this directory cannot run the benchmark, or None."""
    if not os.path.isfile(BENCHMARK):
        return f"{BENCHMARK} not found: run from the root of a checkout"
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return (f"{os.path.join(ROOT, 'src', 'repro')} not found: the "
                "benchmark builds the program from this checkout's source")
    return None


def run_workload(args, extra: List[str], deadline: float,
                 tag: str) -> Dict:
    """One ``workloads.py`` process, in a session of its own."""
    scratch = os.path.join(OUT_DIR, "scratch",
                           f"{args.workload}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scratch", scratch] + extra
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    started = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        procs.kill_session(proc.pid)
        proc.communicate()
        raise RunFailed(f"{args.workload} ({tag}) did not finish in time")
    # The workload leads a session of its own; its servers run in groups
    # of their own inside it.  Nothing of it may outlive the workload.
    leftovers = procs.session_members(proc.pid)
    procs.kill_session(proc.pid)
    text = out.decode("utf-8", "replace")
    ready, result = procs.parse(procs.READY, text), procs.parse(procs.RESULT,
                                                                text)
    if proc.returncode != 0 or result is None or ready is None:
        raise RunFailed(f"{args.workload} ({tag}) exited with "
                        f"{proc.returncode} and no result")
    result["setup_s"] = ready - started
    result["orphans"] = leftovers + result.pop("leftover_children")
    return result


def latency(run: Dict, q: int, min_beyond: int) -> float:
    """The ``q``-th percentile of each group of unit latencies (one group
    per table cell, or per serving phase), combined by geometric mean so
    that every cell weighs the same whatever its model's step time."""
    return stats.geometric_mean([
        stats.percentile(group, q, min_beyond)
        for group in run["latency_groups_ms"]])


def end_to_end(run: Dict, setups: List[float], min_beyond: int) -> Dict:
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["rss_mb"],
        "throughput_per_s": run["throughput_per_s"],
        "p50_ms": latency(run, 50, min_beyond),
        "tail_ms": latency(run, run["tail_q"], min_beyond),
    }


def per_layer(traced: Dict, names: List[str]) -> Dict:
    unknown = set(traced["layers"]) - set(names)
    if unknown:
        raise RunFailed(f"undeclared per-layer metrics: {sorted(unknown)}")
    # A layer the workload never enters reads 0: no work done there.
    return {name: float(traced["layers"].get(name, 0.0)) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    problem = checkout_problem()
    if problem is not None:
        print(f"run.py: {problem}", file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = args.out or os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    trace_path = os.path.splitext(out_path)[0] + ".trace.json"
    min_beyond = 0 if args.smoke else stats.MIN_BEYOND
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            runs = [run_workload(args, ["--trace", "--trace-file",
                                        trace_path], deadline, "traced")]
            values = per_layer(runs[0], list(units))
        else:
            probes = 0 if args.smoke else SETUP_RUNS - 1
            runs = [run_workload(args, ["--setup-only"], deadline, f"setup{i}")
                    for i in range(probes)]
            runs.append(run_workload(args, [], deadline, "main"))
            values = end_to_end(runs[-1], [r["setup_s"] for r in runs],
                                min_beyond)
    except (RunFailed, stats.TooFewSamples) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    measured = [r for r in runs if "checks" in r]
    checks = {}
    for run in measured:
        checks.update({k: checks.get(k, True) and v
                       for k, v in run["checks"].items()})
    checks["no_process_left_behind"] = not any(r["orphans"] for r in runs)
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    correct = all(checks.values()) and failed == 0
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for name, ok in sorted(checks.items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"{args.workload} seed={args.seed}: "
          f"{'correct' if correct else 'INCORRECT'} "
          f"({failed}/{attempted} operations failed)")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "smoke": args.smoke, "correct": correct,
              "attempted": attempted, "failed": failed, "checks": checks,
              "metrics": metrics,
              "runs": [{k: v for k, v in r.items()
                        if k != "latency_groups_ms"} for r in runs]}
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
