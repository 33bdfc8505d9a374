"""Cluster-wide metrics: exposition merging + front-end series.

Every worker renders its own :class:`~repro.serving.metrics.ServerMetrics`
through the one Prometheus text renderer in :mod:`repro.obs.metrics`.
The front-end's aggregation reader scrapes each worker's side-door
(``GET /admin/metrics`` — rendered without being counted, so a scrape
never perturbs what it measures) and merges the texts into one
cluster-wide exposition:

* counters, gauges, histogram ``_bucket``/``_sum``/``_count`` series are
  **summed** across workers;
* ``{quantile="q"}`` series are combined with **max** — quantiles do not
  sum, and the conservative cluster-wide tail is the worst worker's tail;
* metric blocks and samples keep first-appearance order, so identical
  worker registries (the normal case) merge into byte-stable output —
  the CI smoke job golden-compares the rendered aggregate text.

:class:`ClusterMetrics` declares the front-end's own series (worker
liveness, restarts, proxy retries, front-end request counts) on a
standard :class:`~repro.obs.metrics.MetricsRegistry`; the cluster
``/metrics`` scrape is that registry's text followed by the merged
worker exposition.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...obs.metrics import MetricsRegistry, format_labels


class ExpositionError(ValueError):
    """A scraped exposition text could not be parsed."""


def _parse_labels(raw: str, where: str) -> Tuple[Tuple[str, str], ...]:
    """Parse ``k="v",...`` (the inside of ``{}``) honouring escapes."""
    labels: List[Tuple[str, str]] = []
    i = 0
    while i < len(raw):
        eq = raw.find("=", i)
        if eq < 0 or eq + 1 >= len(raw) or raw[eq + 1] != '"':
            raise ExpositionError(f"{where}: malformed labels {raw!r}")
        key = raw[i:eq].strip()
        j = eq + 2
        value = []
        while j < len(raw):
            ch = raw[j]
            if ch == "\\" and j + 1 < len(raw):
                value.append({"n": "\n"}.get(raw[j + 1], raw[j + 1]))
                j += 2
                continue
            if ch == '"':
                break
            value.append(ch)
            j += 1
        else:
            raise ExpositionError(f"{where}: unterminated label in {raw!r}")
        labels.append((key, "".join(value)))
        i = j + 1
        if i < len(raw) and raw[i] == ",":
            i += 1
    return tuple(labels)


def parse_exposition(text: str) -> List[Dict]:
    """Parse Prometheus text into ordered metric blocks.

    Returns ``[{"name", "help", "type", "samples": [(series, labels,
    value, raw_value), ...]}, ...]`` preserving document order.  Only the
    subset of the format our renderer emits is supported — this is a
    federation reader for our own workers, not a general scraper.
    """
    blocks: List[Dict] = []
    by_name: Dict[str, Dict] = {}
    current: Optional[Dict] = None
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"line {line_no}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            current = by_name.get(name)
            if current is None:
                current = {"name": name, "help": help_text,
                           "type": "untyped", "samples": []}
                by_name[name] = current
                blocks.append(current)
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, prom_type = rest.partition(" ")
            if current is None or current["name"] != name:
                raise ExpositionError(f"{where}: TYPE without HELP: {line!r}")
            current["type"] = prom_type
            continue
        if line.startswith("#"):
            continue
        series, _, value_text = line.rpartition(" ")
        if not series:
            raise ExpositionError(f"{where}: malformed sample {line!r}")
        if "{" in series:
            series_name, _, label_text = series.partition("{")
            if not label_text.endswith("}"):
                raise ExpositionError(f"{where}: malformed labels {line!r}")
            labels = _parse_labels(label_text[:-1], where)
        else:
            series_name, labels = series, ()
        try:
            value = float(value_text)
        except ValueError:
            raise ExpositionError(
                f"{where}: non-numeric value {value_text!r}") from None
        if current is None or not series_name.startswith(current["name"]):
            raise ExpositionError(
                f"{where}: sample {series_name!r} outside a metric block")
        current["samples"].append((series_name, labels, value, value_text))
    return blocks


def _is_int_text(raw: str) -> bool:
    try:
        return float(raw) == int(float(raw)) and "." not in raw
    except (ValueError, OverflowError):
        return False


def merge_expositions(texts: Sequence[str]) -> str:
    """Merge worker exposition texts into one cluster-wide exposition.

    Sum everything except ``{quantile=...}`` series, which take the max
    across workers: per-worker quantiles cannot be combined into a true
    cluster quantile without the raw samples, so the merged value is the
    worst worker's — an **upper bound** on the cluster-wide quantile.
    Blocks containing quantile series say so in their merged HELP line,
    so a dashboard reading the aggregate scrape cannot mistake the bound
    for an exact quantile.  Output order follows first appearance, so
    identical worker registries merge byte-stably (golden-compared in
    CI).
    """
    order: List[Tuple[str, Tuple]] = []          # (series, labels) keys
    merged: Dict[Tuple[str, Tuple], Dict] = {}
    blocks_order: List[str] = []
    block_meta: Dict[str, Dict] = {}
    membership: Dict[Tuple[str, Tuple], str] = {}
    has_quantiles: Dict[str, bool] = {}

    for text in texts:
        for block in parse_exposition(text):
            name = block["name"]
            if name not in block_meta:
                block_meta[name] = {"help": block["help"],
                                    "type": block["type"]}
                blocks_order.append(name)
            for series, labels, value, raw in block["samples"]:
                key = (series, labels)
                is_quantile = any(k == "quantile" for k, _ in labels)
                if is_quantile:
                    has_quantiles[name] = True
                entry = merged.get(key)
                if entry is None:
                    merged[key] = {"value": value,
                                   "int": _is_int_text(raw),
                                   "quantile": is_quantile}
                    order.append(key)
                    membership[key] = name
                else:
                    if entry["quantile"]:
                        entry["value"] = max(entry["value"], value)
                    else:
                        entry["value"] += value
                    entry["int"] = entry["int"] and _is_int_text(raw)

    lines: List[str] = []
    for name in blocks_order:
        meta = block_meta[name]
        help_text = meta["help"]
        if has_quantiles.get(name):
            help_text += (" Quantile series are merged as max across "
                          "workers (upper bound, not an exact cluster "
                          "quantile).")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {meta['type']}")
        for key in order:
            if membership[key] != name:
                continue
            series, labels = key
            entry = merged[key]
            value = entry["value"]
            if entry["int"] and float(value).is_integer():
                value_text = str(int(value))
            else:
                value_text = f"{value:.6f}"
            lines.append(f"{series}{format_labels(dict(labels))} "
                         f"{value_text}")
    return "\n".join(lines) + "\n" if lines else ""


class ClusterMetrics:
    """Front-end series: worker liveness, restarts, proxy behaviour."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        self._workers = self.registry.gauge(
            "repro_cluster_workers",
            "Configured worker processes in the cluster.")
        self._up = self.registry.gauge(
            "repro_cluster_workers_alive",
            "Workers currently alive and serving.")
        self._restarts = self.registry.counter(
            "repro_cluster_worker_restarts_total",
            "Worker respawns after a crash or hung heartbeat.")
        self._requests = self.registry.counter(
            "repro_frontend_requests_total",
            "Front-end HTTP requests, by status code.")
        self._retries = self.registry.counter(
            "repro_frontend_proxy_retries_total",
            "Requests re-dispatched to a spillover worker.")
        self._shed = self.registry.counter(
            "repro_frontend_shed_total",
            "Requests shed at the front end (no alive worker).")
        # Opt-in SLO tracker (see ServerMetrics.attach_slo): absent by
        # default so the front-end exposition is unchanged without it.
        self.slo = None

    def set_workers(self, configured: int) -> None:
        self._workers.set(configured)

    def set_alive_fn(self, fn: Callable[[], int]) -> None:
        self._up.set_fn(fn)

    def observe_restart(self, worker: int) -> None:
        self._restarts.inc(labels={"worker": worker})

    def observe_request(self, status_code: int,
                        latency_s: Optional[float] = None) -> None:
        code = int(status_code)
        self._requests.inc(labels={"code": code, "class": f"{code // 100}xx"})
        if self.slo is not None:
            self.slo.observe(code, latency_s)

    def attach_slo(self, tracker) -> "ClusterMetrics":
        """Attach an SLO tracker; front-end requests feed its windows."""
        self.slo = tracker
        return self

    def observe_retry(self) -> None:
        self._retries.inc()

    def observe_shed(self) -> None:
        self._shed.inc()

    def render(self) -> str:
        if self.slo is not None:
            self.slo.evaluate()
        return self.registry.render()

    def snapshot(self) -> Dict:
        return self.registry.data()
