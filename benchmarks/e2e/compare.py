"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the change; both are
files written by ``sweep.py``.  For every workload and end-to-end metric
it prints each side's median and quartiles and a verdict against the
metric's bound in A's ``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound,
  however noisy A is;
* ``improved``   — B wins at least 9 in 10 seed-matched pairs and the
  medians differ by more than A's inter-quartile distance;
* ``unresolved`` — neither of those, but A's own spread (quartile
  distance over median) is wider than the bound and not every run of B
  reads better than every run of A, so "unchanged" cannot be told;
* ``unchanged``  — otherwise.

For traced runs it then lists the ten per-layer medians that moved
most, so a regression names its layer.  Exits 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Dict, List

import stats

TOP = 10      # per-layer deltas listed per workload


def load(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def by_workload(doc: Dict, trace: int) -> Dict[str, List[Dict]]:
    runs: Dict[str, List[Dict]] = defaultdict(list)
    for run in doc["runs"]:
        if run["trace"] == trace and not run.get("smoke"):
            runs[run["workload"]].append(run)
    return runs


def verdict(a: List[Dict], b: List[Dict], name: str, better: str,
            bound: float) -> Dict:
    va = [r["metrics"][name]["value"] for r in a]
    vb = [r["metrics"][name]["value"] for r in b]
    qa, qb = stats.quartiles(va), stats.quartiles(vb)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb["median"] - qa["median"]) / abs(qa["median"])
    seeds_b = {r["seed"]: r["metrics"][name]["value"] for r in b}
    pairs = [(r["metrics"][name]["value"], seeds_b[r["seed"]])
             for r in a if r["seed"] in seeds_b]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    all_better = max(sign * v for v in vb) < min(sign * v for v in va)
    # A median worse by more than the bound is a regression however noisy
    # the baseline; noise only stops a small difference reading as none.
    if worse_by > bound:
        label = "regressed"
    elif (worse_by < 0 and pairs and wins >= 0.9 * len(pairs)
          and abs(qb["median"] - qa["median"]) > qa["q3"] - qa["q1"]):
        label = "improved"
    elif stats.relative_spread(va) > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"a": qa, "b": qb, "worse_by": worse_by, "wins": wins,
            "pairs": len(pairs), "verdict": label}


def layer_deltas(a: List[Dict], b: List[Dict]) -> List[tuple]:
    """(metric, A median, B median, relative change) by size of change."""
    rows = []
    for name in a[0]["metrics"] if a else ():
        va = [r["metrics"][name]["value"] for r in a]
        vb = [r["metrics"][name]["value"] for r in b]
        ma, mb = stats.quartiles(va)["median"], stats.quartiles(vb)["median"]
        if ma == 0 and mb == 0:
            continue
        change = (mb - ma) / abs(ma) if ma else float("inf")
        rows.append((name, ma, mb, change, a[0]["metrics"][name]["unit"]))
    return sorted(rows, key=lambda row: -abs(row[3]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    doc_a, doc_b = load(args.a), load(args.b)
    spec = doc_a["benchmark"]
    e2e_a, e2e_b = by_workload(doc_a, 0), by_workload(doc_b, 0)
    layers_a, layers_b = by_workload(doc_a, 1), by_workload(doc_b, 1)

    regressed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = e2e_a.get(workload, []), e2e_b.get(workload, [])
        if not a or not b:
            print(f"{workload}: no end-to-end runs on "
                  f"{'both sides' if not a and not b else 'one side'}")
            continue
        print(f"{workload}  (A {len(a)} runs, B {len(b)} runs)")
        print(f"  {'metric':18s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'worse by':>9s} {'bound':>6s}  "
              "verdict")
        for metric in spec["end_to_end"]:
            v = verdict(a, b, metric["name"], metric["better"],
                        metric["bound"])
            regressed += v["verdict"] == "regressed"
            fmt = "{median:10.4g} [{q1:.4g}, {q3:.4g}]"
            print(f"  {metric['name']:18s} {fmt.format(**v['a']):>34s} "
                  f"{fmt.format(**v['b']):>34s} {v['worse_by']:+8.1%} "
                  f"{metric['bound']:6.0%}  {v['verdict']}"
                  + (f" ({v['wins']}/{v['pairs']} pairs won)"
                     if v["verdict"] == "improved" else ""))
        la, lb = layers_a.get(workload, []), layers_b.get(workload, [])
        if la and lb:
            print(f"  per-layer medians that moved most "
                  f"(A {len(la)} traced runs, B {len(lb)}):")
            for name, ma, mb, change, unit in layer_deltas(la, lb)[:TOP]:
                print(f"    {name:42s} {ma:10.4g} -> {mb:10.4g} {unit:9s} "
                      f"{change:+8.1%}")
        print()
    print(f"{regressed} metric(s) regressed" if regressed
          else "no metric regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
