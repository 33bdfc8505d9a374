"""Aggregate a JSONL run log into span-tree and per-phase summaries.

Pure functions over the record dicts produced by
:mod:`repro.obs.events` — the ``repro trace`` CLI is a thin wrapper that
reads a file and prints :func:`render_report`.

The span tree groups ``span_end`` records by their *name path* (the chain
of ancestor span names), so a thousand ``grid.cell`` spans under one
``grid.run`` collapse into a single aggregated row with count/total/mean/
max — the "where did the time go" table.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import events  # noqa: F401  (re-exported; analysis imports via here)
from .store import TraceStore

#: The record kinds the report sections actually aggregate.  Streaming
#: loads with this filter let footer-indexed rotated logs skip whole
#: segments (e.g. ones holding only resource samples).
ANALYSIS_KINDS = ("span_start", "span_end", "event", "alert")


def load(path: str, kinds: Optional[Iterable[str]] = None) -> List[Dict]:
    """Stream + schema-validate a run log (rotated chains included).

    Replaces the old ``events.read_events`` single-file path: segments
    are streamed one line at a time, and when ``kinds`` is given, sealed
    segments whose footer proves they hold none of the requested kinds
    are skipped without reading their bodies.
    """
    return list(TraceStore(path).iter_events(kinds=kinds))


def spans(records: Sequence[Dict]) -> List[Dict]:
    return [r for r in records if r.get("kind") == "span_end"]


def span_paths(records: Sequence[Dict]) -> List[Tuple[Tuple[str, ...], Dict]]:
    """Each span's ancestor-name path (root first), orphans as roots."""
    ended = spans(records)
    by_id = {r["span"]: r for r in ended if r.get("span")}
    cache: Dict[str, Tuple[str, ...]] = {}

    def path_of(rec: Dict) -> Tuple[str, ...]:
        span_id = rec.get("span")
        if span_id in cache:
            return cache[span_id]
        seen = set()
        names = []
        node: Optional[Dict] = rec
        while node is not None and node.get("span") not in seen:
            seen.add(node.get("span"))
            names.append(node.get("name", "?"))
            node = by_id.get(node.get("parent"))
        path = tuple(reversed(names))
        if span_id:
            cache[span_id] = path
        return path

    return [(path_of(rec), rec) for rec in ended]


def aggregate_spans(records: Sequence[Dict]) -> Dict[Tuple[str, ...], Dict]:
    """Per-path stats: count, total/min/max duration, error count."""
    stats: Dict[Tuple[str, ...], Dict] = {}
    for path, rec in span_paths(records):
        entry = stats.setdefault(path, {"count": 0, "total_s": 0.0,
                                        "min_s": float("inf"), "max_s": 0.0,
                                        "errors": 0})
        dur = float(rec.get("dur_s", 0.0))
        entry["count"] += 1
        entry["total_s"] += dur
        entry["min_s"] = min(entry["min_s"], dur)
        entry["max_s"] = max(entry["max_s"], dur)
        if rec.get("attrs", {}).get("status") == "error":
            entry["errors"] += 1
    return stats


def render_span_tree(records: Sequence[Dict]) -> str:
    """The indented span-profile table (one row per name path)."""
    stats = aggregate_spans(records)
    if not stats:
        return "(no spans recorded)"
    lines = [f"{'span':44s} {'count':>7s} {'total':>10s} {'mean':>10s} "
             f"{'max':>10s}"]
    for path in sorted(stats):
        entry = stats[path]
        label = "  " * (len(path) - 1) + path[-1]
        flag = f"  ({entry['errors']} errors)" if entry["errors"] else ""
        lines.append(
            f"{label:44s} {entry['count']:7d} "
            f"{entry['total_s'] * 1e3:8.1f}ms "
            f"{entry['total_s'] / entry['count'] * 1e3:8.1f}ms "
            f"{entry['max_s'] * 1e3:8.1f}ms{flag}")
    return "\n".join(lines)


def epoch_rows(records: Sequence[Dict]) -> List[Dict]:
    return [{"epoch": r["attrs"].get("epoch"),
             "train_loss": r["attrs"].get("train_loss"),
             "val_loss": r["attrs"].get("val_loss"),
             "seconds": r.get("dur_s", 0.0)}
            for r in spans(records) if r.get("name") == "trainer.epoch"]


def render_epochs(records: Sequence[Dict]) -> Optional[str]:
    rows = epoch_rows(records)
    if not rows:
        return None
    lines = [f"{'epoch':>5s} {'train':>10s} {'val':>10s} {'seconds':>9s}"]
    for row in rows:
        lines.append(f"{row['epoch']:5d} {row['train_loss']:10.4f} "
                     f"{row['val_loss']:10.4f} {row['seconds']:8.2f}s")
    return "\n".join(lines)


def cell_rows(records: Sequence[Dict]) -> List[Dict]:
    return [{"cell": r["attrs"].get("cell"),
             "cached": bool(r["attrs"].get("cached")),
             "mse": r["attrs"].get("mse"),
             "worker_pid": r["attrs"].get("worker_pid"),
             "seconds": r.get("dur_s", 0.0)}
            for r in spans(records) if r.get("name") == "grid.cell"]


def render_cells(records: Sequence[Dict], stragglers: int = 3
                 ) -> Optional[str]:
    rows = cell_rows(records)
    if not rows:
        return None
    executed = [r for r in rows if not r["cached"]]
    cached = len(rows) - len(executed)
    lines = [f"{len(rows)} cells: {len(executed)} executed, "
             f"{cached} cache hits"]
    if executed:
        total = sum(r["seconds"] for r in executed)
        lines.append(f"executed cell time: total {total:.2f}s, "
                     f"mean {total / len(executed):.2f}s")
        worst = sorted(executed, key=lambda r: r["seconds"],
                       reverse=True)[:stragglers]
        lines.append("slowest cells:")
        for row in worst:
            lines.append(f"  {row['seconds']:7.2f}s  {row['cell']}"
                         + (f"  (pid {row['worker_pid']})"
                            if row.get("worker_pid") else ""))
    return "\n".join(lines)


def render_requests(records: Sequence[Dict]) -> Optional[str]:
    reqs = [r for r in spans(records) if r.get("name") == "http.request"]
    if not reqs:
        return None
    by_status: Dict[str, int] = {}
    for r in reqs:
        key = str(r["attrs"].get("status_code", "?"))
        by_status[key] = by_status.get(key, 0) + 1
    total = sum(r.get("dur_s", 0.0) for r in reqs)
    parts = ", ".join(f"{code}: {n}" for code, n in sorted(by_status.items()))
    lines = [f"{len(reqs)} requests ({parts}); "
             f"mean latency {total / len(reqs) * 1e3:.1f}ms"]
    batches = [r for r in spans(records) if r.get("name") == "batch.execute"]
    if batches:
        sizes = [r["attrs"].get("size", 0) for r in batches]
        lines.append(f"{len(batches)} batched forwards, "
                     f"mean batch size {sum(sizes) / len(batches):.2f}")
    return "\n".join(lines)


def profile_events(records: Sequence[Dict]) -> List[Dict]:
    """``trainer.profile`` v=1 events: one GraphProfiler summary per fit."""
    return [r for r in records if r.get("kind") == "event"
            and r.get("name") == "trainer.profile"]


def render_profiles(records: Sequence[Dict]) -> Optional[str]:
    """Per-op profile tables recorded by ``Trainer.fit(profile=True)``.

    The event attrs are a ``GraphProfiler.summary()`` dict (plus the model
    name), so the rendering is the same table ``repro train --profile``
    prints — trace consumers see identical numbers.
    """
    evs = profile_events(records)
    if not evs:
        return None
    from ..autodiff import format_profile
    blocks = []
    for ev in evs:
        attrs = ev.get("attrs", {})
        blocks.append(f"model {attrs.get('model', '?')}:\n"
                      + format_profile(attrs))
    return "\n\n".join(blocks)


def render_resources(records: Sequence[Dict]) -> Optional[str]:
    samples = [r for r in records if r.get("kind") == "resource"]
    if not samples:
        return None
    rss = [s["attrs"].get("rss_bytes") for s in samples
           if s["attrs"].get("rss_bytes") is not None]
    cpu = [s["attrs"].get("cpu_s") for s in samples
           if s["attrs"].get("cpu_s") is not None]
    pct = [s["attrs"].get("cpu_pct") for s in samples
           if s["attrs"].get("cpu_pct") is not None]
    parts = [f"{len(samples)} resource samples"]
    if rss:
        parts.append(f"peak RSS {max(rss) / (1 << 20):.1f} MiB")
    if cpu:
        parts.append(f"CPU {max(cpu) - min(cpu):.2f}s over the run")
    if pct:
        parts.append(f"CPU {sum(pct) / len(pct):.0f}% mean / "
                     f"{max(pct):.0f}% peak")
    return "; ".join(parts)


def render_report(records: Sequence[Dict]) -> str:
    """The full ``repro trace`` output: span tree + per-phase summaries."""
    if not records:
        return "(empty run log)"
    sections = [("span tree", render_span_tree(records)),
                ("epochs", render_epochs(records)),
                ("op profile", render_profiles(records)),
                ("grid cells", render_cells(records)),
                ("serving", render_requests(records)),
                ("resources", render_resources(records))]
    blocks = []
    for title, body in sections:
        if body is not None:
            blocks.append(f"== {title} ==\n{body}")
    return "\n\n".join(blocks) if blocks else "(empty run log)"


def report_data(records: Sequence[Dict]) -> Dict:
    """One JSON-serialisable doc mirroring every rendered section.

    This is what ``repro trace --json`` prints: the same aggregates the
    human tables show (span tree, epochs, cells, serving, resources)
    plus the analysis layer (request/fit attributions, SLO statuses,
    logged alerts) in machine-readable form.
    """
    from . import analysis as _analysis          # avoid circular import
    from . import slo as _slo
    span_stats = aggregate_spans(records)
    spans_out = []
    for path in sorted(span_stats):
        entry = span_stats[path]
        spans_out.append({"path": list(path), **entry})
    requests = [r for r in spans(records) if r.get("name") == "http.request"]
    by_status: Dict[str, int] = {}
    for r in requests:
        key = str(r["attrs"].get("status_code", "?"))
        by_status[key] = by_status.get(key, 0) + 1
    samples = [r for r in records if r.get("kind") == "resource"]
    pct = [s["attrs"].get("cpu_pct") for s in samples
           if s["attrs"].get("cpu_pct") is not None]
    rss = [s["attrs"].get("rss_bytes") for s in samples
           if s["attrs"].get("rss_bytes") is not None]
    attributions = _analysis.request_attributions(records)
    return {
        "spans": spans_out,
        "epochs": epoch_rows(records),
        "grid_cells": cell_rows(records),
        "serving": {
            "requests": len(requests),
            "by_status": by_status,
            "mean_latency_s": (sum(r.get("dur_s", 0.0) for r in requests)
                               / len(requests)) if requests else None,
        },
        "resources": {
            "samples": len(samples),
            "peak_rss_bytes": max(rss) if rss else None,
            "mean_cpu_pct": (sum(pct) / len(pct)) if pct else None,
        },
        "analysis": {
            "requests": attributions,
            "summary": _analysis.summarize_attributions(attributions),
            "fits": _analysis.fit_attributions(records),
        },
        "slo": [status.data() for status in _slo.replay_trace(records)],
        "alerts": [r for r in records if r.get("kind") == "alert"],
    }
