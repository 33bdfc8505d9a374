#!/usr/bin/env python
"""CI gate for substrate performance regressions.

Diffs a freshly generated ``BENCH_substrate.json`` (see
``benchmarks/bench_substrate.py``) against the committed baseline and exits
non-zero when any tracked timing regresses by more than the threshold
(default 25%).  Typical CI usage::

    PYTHONPATH=src python benchmarks/bench_substrate.py
    python scripts/bench_compare.py

Timings are compared on ``min_s`` (the most noise-robust statistic a
single-run harness produces); cases present on only one side are reported
but never fail the gate, so adding or retiring benchmark cases does not
require lock-step baseline updates.

Besides raw timings, the experiment-grid facts recorded by the bench are
gated when present in the current report:

* ``grid_parallel_matches_serial`` must be true (worker-pool results are
  bit-identical to the serial reference);
* ``grid_warm_over_cold`` (warm result-cache re-run as a fraction of the
  cold run) must stay under ``--warm-threshold`` (default 25%);
* ``tfblock_freed_over_retained`` (peak retained activation bytes over a
  two-step TF-Block run with the default freeing policy, as a fraction of
  the same run under ``retain_graph=True``) must stay under
  ``--free-threshold`` (default 80%) — locking in the graph IR's
  free-after-backward memory win;
* ``serving_batched_speedup`` (sustained micro-batched throughput over the
  ``max_batch_size=1`` configuration, recorded by
  ``scripts/bench_serving.py``) must stay at or above
  ``--serving-speedup-threshold`` (default 3x);
* the pre-fork cluster facts recorded by ``bench_serving.py --cluster``:
  ``cluster_batched_matches_single`` (proxied responses bit-identical to
  ``single_forward``), ``cluster_overload_clean`` + accepted-p99 under
  the deadline (clean shedding), and ``cluster_scaling`` which must stay
  at or above ``--cluster-scaling-threshold`` (default 1.7x) — enforced
  only on hosts whose usable CPU count covers the largest worker count;
* ``trainer_obs_disabled_overhead`` (``Trainer.fit`` with the observability
  layer present but disabled, as a ratio of the uninstrumented fit) must
  stay within ``--obs-overhead-threshold`` (default 2%) — the tracing
  layer's zero-cost-when-disabled contract;
* ``trace_indexed_over_full`` (reading only span/event kinds from a
  rotated multi-segment log, as a fraction of the full scan) must stay
  at or below ``--trace-indexed-threshold`` (default 50%) — the footer
  index must let ``repro trace --analyze`` skip segments, not re-read
  everything — and ``trace_indexed_reads_complete`` must be true.

Facts the substrate bench unconditionally records (everything above except
the optional grid and serving sections) are *required*: a report missing
one fails the gate with the key named, instead of silently skipping the
check against a stale or truncated ``BENCH_substrate.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_CURRENT = os.path.join(REPO_ROOT, "BENCH_substrate.json")
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "benchmarks", "BENCH_baseline.json")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_grid_facts(current: dict, warm_threshold: float) -> int:
    """Gate the engine's correctness/caching facts; 0 = ok, 1 = fail."""
    ver = current.get("verification", {})
    failures = 0
    if "grid_parallel_matches_serial" in ver:
        ok = bool(ver["grid_parallel_matches_serial"])
        print(f"grid: parallel matches serial: {ok}")
        if not ok:
            print("FAIL: parallel grid results diverged from the serial "
                  "reference", file=sys.stderr)
            failures += 1
    if "grid_warm_over_cold" in ver:
        frac = float(ver["grid_warm_over_cold"])
        print(f"grid: warm cache re-run at {frac:.1%} of cold "
              f"(threshold {warm_threshold:.0%})")
        if frac > warm_threshold:
            print(f"FAIL: warm result-cache re-run took {frac:.1%} of the "
                  f"cold run (limit {warm_threshold:.0%})", file=sys.stderr)
            failures += 1
    if "grid_parallel_speedup" in ver:
        print(f"grid: parallel speedup {ver['grid_parallel_speedup']:.2f}x "
              f"with {ver.get('grid_workers', '?')} workers on "
              f"{ver.get('grid_usable_cpus', '?')} usable cpu(s) "
              "(informational; depends on host cores)")
    return 1 if failures else 0


def check_memory_facts(current: dict, free_threshold: float) -> int:
    """Gate the graph IR's activation-freeing memory win; 0 = ok, 1 = fail."""
    ver = current.get("verification", {})
    if "tfblock_freed_over_retained" not in ver:
        return 0
    frac = float(ver["tfblock_freed_over_retained"])
    freed = ver.get("tfblock_peak_saved_bytes_freed", 0)
    retained = ver.get("tfblock_peak_saved_bytes_retained", 0)
    print(f"tfblock: peak saved-activation bytes {freed:,} (freeing) vs "
          f"{retained:,} (retain_graph) = {frac:.1%} "
          f"(threshold {free_threshold:.0%})")
    if frac > free_threshold:
        print(f"FAIL: activation freeing only reached {frac:.1%} of the "
              f"retained peak (limit {free_threshold:.0%}) — the "
              "free-after-backward policy is not releasing saved tensors",
              file=sys.stderr)
        return 1
    return 0


def check_serving_facts(current: dict, speedup_threshold: float) -> int:
    """Gate the micro-batching throughput win; 0 = ok, 1 = fail."""
    ver = current.get("verification", {})
    if "serving_batched_speedup" not in ver:
        return 0
    speedup = float(ver["serving_batched_speedup"])
    print(f"serving: micro-batched {ver.get('serving_batched_rps', 0):.0f} "
          f"req/s vs unbatched {ver.get('serving_unbatched_rps', 0):.0f} "
          f"req/s = {speedup:.2f}x at "
          f"{ver.get('serving_clients', '?')} clients "
          f"(threshold {speedup_threshold:.1f}x, "
          f"batched p95 {ver.get('serving_batched_p95_ms', 0):.1f}ms / "
          f"p99 {ver.get('serving_batched_p99_ms', 0):.1f}ms)")
    if speedup < speedup_threshold:
        print(f"FAIL: micro-batched serving only reached {speedup:.2f}x the "
              f"unbatched throughput (minimum {speedup_threshold:.1f}x) — "
              "dynamic batching is not amortising the forward pass",
              file=sys.stderr)
        return 1
    return 0


def check_cluster_facts(current: dict, scaling_threshold: float) -> int:
    """Gate the pre-fork cluster facts recorded by bench_serving --cluster.

    Machine-independent facts (proxied bit-identity, clean overload
    shedding, accepted-p99 under the deadline) are hard gates.  The
    worker-scaling ratio is only enforced when the host exposes at least
    as many usable CPUs as the largest worker count — on a 1-core CI
    box, 4 workers time-slice one core and the ratio is meaningless
    (same precedent as ``grid_parallel_speedup``).
    """
    ver = current.get("verification", {})
    if "cluster_scaling" not in ver:
        return 0
    failures = 0
    scaling = float(ver["cluster_scaling"])
    workers = int(ver.get("cluster_scaling_workers", 0))
    cpus = int(ver.get("cluster_usable_cpus", 0))
    counts = ver.get("cluster_worker_counts", [])
    rates = ", ".join(
        f"{w}w={ver.get(f'cluster_rps_{w}w', 0):.0f}rps/"
        f"p99 {ver.get(f'cluster_p99_ms_{w}w', 0):.1f}ms" for w in counts)
    enforced = cpus >= workers
    print(f"cluster: {rates}; scaling {scaling:.2f}x at {workers} workers "
          f"on {cpus} usable cpu(s) "
          + (f"(threshold {scaling_threshold:.1f}x)" if enforced
             else "(informational; host has too few cores to scale)"))
    if enforced and scaling < scaling_threshold:
        print(f"FAIL: cluster throughput only scaled {scaling:.2f}x at "
              f"{workers} workers (minimum {scaling_threshold:.1f}x on a "
              f"{cpus}-cpu host) — the pre-fork tier is not adding "
              "capacity", file=sys.stderr)
        failures += 1
    if not ver.get("cluster_batched_matches_single", False):
        print("FAIL: proxied cluster responses diverged from the "
              "single_forward reference — the determinism contract broke "
              "somewhere across the front-end hop or the shared weights",
              file=sys.stderr)
        failures += 1
    if not ver.get("cluster_overload_clean", False):
        print("FAIL: the overload burst produced outcomes other than "
              "200/503-with-Retry-After (or never shed) — load shedding "
              "is not clean", file=sys.stderr)
        failures += 1
    p99 = float(ver.get("cluster_overload_accepted_p99_ms", float("inf")))
    deadline = float(ver.get("cluster_overload_deadline_ms", 0.0))
    print(f"cluster: overload accepted p99 {p99:.1f}ms "
          f"(deadline {deadline:.0f}ms), shed "
          f"{float(ver.get('cluster_overload_shed_fraction', 0)):.1%} at "
          f"{float(ver.get('cluster_overload_offered_multiple', 0)):.1f}x "
          "capacity")
    if p99 >= deadline:
        print(f"FAIL: accepted requests' p99 ({p99:.1f}ms) exceeded the "
              f"configured deadline ({deadline:.0f}ms) under overload — "
              "admission control is queueing instead of shedding",
              file=sys.stderr)
        failures += 1
    return 1 if failures else 0


def check_obs_facts(current: dict, overhead_threshold: float) -> int:
    """Gate the disabled-tracer overhead on Trainer.fit; 0 = ok, 1 = fail."""
    ver = current.get("verification", {})
    if "trainer_obs_disabled_overhead" not in ver:
        return 0
    ratio = float(ver["trainer_obs_disabled_overhead"])
    enabled = ver.get("trainer_obs_enabled_overhead")
    limit = 1.0 + overhead_threshold
    line = (f"obs: disabled-tracer fit overhead {ratio:.3f}x of "
            f"uninstrumented (limit {limit:.2f}x)")
    if enabled is not None:
        line += f"; enabled {float(enabled):.3f}x (informational)"
    print(line)
    if ratio > limit:
        print(f"FAIL: Trainer.fit with tracing disabled ran at {ratio:.3f}x "
              f"the uninstrumented fit (limit {limit:.2f}x) — the "
              "obs.active() fast path is no longer free", file=sys.stderr)
        return 1
    return 0


# Facts bench_substrate.py records on every run (the grid and serving
# sections are optional and stay gated-when-present).  A missing key here
# means the gate would silently pass against a stale/truncated report.
REQUIRED_FACTS = (
    "tfblock_freed_over_retained",
    "trainer_obs_disabled_overhead",
    "trace_indexed_over_full",
)


def check_required_facts(current: dict) -> int:
    """Fail loudly, naming every expected fact missing from the report."""
    ver = current.get("verification", {})
    missing = [key for key in REQUIRED_FACTS if key not in ver]
    for key in missing:
        print(f"FAIL: required benchmark fact '{key}' is missing from the "
              "current report — regenerate BENCH_substrate.json with "
              "benchmarks/bench_substrate.py (stale or truncated report?)",
              file=sys.stderr)
    return 1 if missing else 0


def check_trace_store_facts(current: dict, indexed_threshold: float) -> int:
    """Gate the footer-indexed read win on rotated logs; 0 = ok, 1 = fail."""
    ver = current.get("verification", {})
    if "trace_indexed_over_full" not in ver:
        return 0  # absence is reported by check_required_facts
    failures = 0
    frac = float(ver["trace_indexed_over_full"])
    print(f"trace store: indexed read at {frac:.1%} of the full scan over "
          f"{ver.get('trace_segments', '?')} rotated segments "
          f"(threshold {indexed_threshold:.0%})")
    if frac > indexed_threshold:
        print(f"FAIL: the footer-indexed read took {frac:.1%} of the full "
              f"scan (limit {indexed_threshold:.0%}) — segment skipping is "
              "not happening (footers missing or ignored?)", file=sys.stderr)
        failures += 1
    if not ver.get("trace_indexed_reads_complete", False):
        print("FAIL: the indexed read returned a different span/event set "
              "than the full scan — the footer index is dropping records",
              file=sys.stderr)
        failures += 1
    return 1 if failures else 0


def compare(current: dict, baseline: dict, threshold: float) -> int:
    cur_t = current.get("timings", {})
    base_t = baseline.get("timings", {})
    shared = sorted(set(cur_t) & set(base_t))
    regressions = []
    print(f"{'case':38s} {'baseline':>10s} {'current':>10s} {'ratio':>7s}")
    for name in shared:
        base_ms = base_t[name]["min_s"] * 1e3
        cur_ms = cur_t[name]["min_s"] * 1e3
        ratio = cur_ms / base_ms if base_ms > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + threshold:
            regressions.append((name, ratio))
            flag = "  << REGRESSION"
        print(f"{name:38s} {base_ms:8.3f}ms {cur_ms:8.3f}ms {ratio:6.2f}x{flag}")
    for name in sorted(set(cur_t) - set(base_t)):
        print(f"{name:38s} {'--':>10s} "
              f"{cur_t[name]['min_s'] * 1e3:8.3f}ms    new")
    for name in sorted(set(base_t) - set(cur_t)):
        print(f"{name:38s} {base_t[name]['min_s'] * 1e3:8.3f}ms "
              f"{'--':>10s}    retired")
    if not shared:
        print("error: no overlapping benchmark cases to compare",
              file=sys.stderr)
        return 2
    if regressions:
        worst = max(regressions, key=lambda item: item[1])
        print(f"\nFAIL: {len(regressions)} case(s) regressed more than "
              f"{threshold:.0%} (worst: {worst[0]} at {worst[1]:.2f}x)",
              file=sys.stderr)
        return 1
    print(f"\nOK: {len(shared)} case(s) within {threshold:.0%} of baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", default=DEFAULT_CURRENT,
                        help="freshly generated benchmark report")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed reference report")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional slowdown before failing "
                             "(0.25 = 25%%)")
    parser.add_argument("--warm-threshold", type=float, default=0.25,
                        help="max warm/cold grid wall-clock fraction "
                             "(0.25 = warm cache re-run must finish in "
                             "<25%% of the cold run)")
    parser.add_argument("--free-threshold", type=float, default=0.80,
                        help="max freed/retained peak saved-activation "
                             "fraction for the TF-Block profile (0.80 = "
                             "freeing must cut peak bytes by >=20%%)")
    parser.add_argument("--serving-speedup-threshold", type=float, default=3.0,
                        help="minimum micro-batched/unbatched serving "
                             "throughput ratio (3.0 = batching must "
                             "sustain >=3x the unbatched request rate)")
    parser.add_argument("--cluster-scaling-threshold", type=float,
                        default=1.7,
                        help="minimum sustained throughput ratio of the "
                             "largest cluster worker count over 1 worker "
                             "(enforced only on hosts with enough usable "
                             "CPUs; recorded by bench_serving --cluster)")
    parser.add_argument("--obs-overhead-threshold", type=float, default=0.02,
                        help="allowed Trainer.fit slowdown with tracing "
                             "disabled, vs the uninstrumented fit "
                             "(0.02 = 2%%)")
    parser.add_argument("--trace-indexed-threshold", type=float, default=0.5,
                        help="max indexed/full read-time fraction on a "
                             "rotated trace log (0.5 = the footer index "
                             "must at least halve the analysis read)")
    args = parser.parse_args(argv)
    for path in (args.current, args.baseline):
        if not os.path.exists(path):
            print(f"error: {path} not found", file=sys.stderr)
            return 2
    current = load(args.current)
    status = compare(current, load(args.baseline), args.threshold)
    required_status = check_required_facts(current)
    grid_status = check_grid_facts(current, args.warm_threshold)
    memory_status = check_memory_facts(current, args.free_threshold)
    serving_status = check_serving_facts(current,
                                         args.serving_speedup_threshold)
    cluster_status = check_cluster_facts(current,
                                         args.cluster_scaling_threshold)
    obs_status = check_obs_facts(current, args.obs_overhead_threshold)
    trace_status = check_trace_store_facts(current,
                                           args.trace_indexed_threshold)
    return (status or required_status or grid_status or memory_status
            or serving_status or cluster_status or obs_status
            or trace_status)


if __name__ == "__main__":
    raise SystemExit(main())
