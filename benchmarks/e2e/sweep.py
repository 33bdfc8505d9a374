"""Collect result sets: many ``run.py`` runs, alternating between sides.

    python3 benchmarks/e2e/sweep.py --side A_CHECKOUT A.json \\
        [--side B_CHECKOUT B.json] [--pairs 10]

Each side is a checkout (its own ``benchmarks/e2e/run.py`` runs from its
root) and the result-set file its runs are collected in.  Pair ``i``
(from 1) runs every workload once per side with seed ``i``; which side
goes first alternates from pair to pair, and the workload order rotates,
so drift on the host spreads evenly over both sides.  The first pair
also runs ``--trace 1``.  Naming the same checkout twice measures the
benchmark's own noise.  Compare the two files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time


def run_once(checkout: str, workload: str, seed: int, trace: int,
             tag: str) -> dict:
    out = os.path.join(checkout, ".e2e_out",
                       f"sweep-{tag}-{workload}-seed{seed}-trace{trace}.json")
    cmd = [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out]
    started = time.time()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    elapsed = time.time() - started
    if not os.path.exists(out) or proc.returncode not in (0, 1):
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"sweep: {workload} seed {seed} ({tag}) failed "
                         f"with exit code {proc.returncode}")
    with open(out) as fh:
        full = json.load(fh)
    record = {k: full[k] for k in ("workload", "seed", "trace", "correct",
                                   "attempted", "failed", "checks",
                                   "metrics")}
    record["wall_s"] = elapsed
    print(f"  {tag} {workload:20s} seed={seed:<4d} trace={trace} "
          f"{'ok' if record['correct'] else 'INCORRECT'} {elapsed:6.1f}s",
          flush=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    parser.add_argument("--side", nargs=2, action="append", required=True,
                        metavar=("CHECKOUT", "OUT"))
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    sides = [(os.path.abspath(c), os.path.abspath(o)) for c, o in args.side]
    with open(os.path.join(sides[0][0], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    sets = [{"benchmark": spec,
             "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                      "python": platform.python_version()},
             "runs": []} for _ in sides]
    for pair in range(args.pairs):
        seed = pair + 1
        order = list(range(len(sides)))
        if pair % 2:
            order.reverse()
        shift = pair % len(workloads)
        rotated = workloads[shift:] + workloads[:shift]
        traces = (0, 1) if pair == 0 else (0,)
        for side in order:
            for workload in rotated:
                for trace in traces:
                    record = run_once(sides[side][0], workload, seed, trace,
                                      "AB"[side] if len(sides) > 1 else "A")
                    record["pair"] = pair
                    sets[side]["runs"].append(record)
        for (_, out), doc in zip(sides, sets):
            with open(out, "w") as fh:
                json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
