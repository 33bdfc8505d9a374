"""Tests for the serving subsystem: registry, micro-batcher, HTTP server.

The load-bearing property throughout is the determinism guarantee:
micro-batched outputs must be *bit-identical* (``repr``-exact) to
:func:`repro.serving.single_forward` for every batch policy.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.baselines import build_model
from repro.nn import save_checkpoint
from repro.serving import (
    BatcherClosedError, DeadlineExceededError, InvalidWindowError,
    MicroBatcher, ModelRegistry, QueueFullError, ServerMetrics, ServingConfig,
    UnknownModelError, build_server, resolve_batch_policy, single_forward,
)
from repro.utils import set_seed

SEQ, PRED, CIN = 32, 8, 3


def make_ckpt(path, model_name="DLinear", task="forecast", seed=0,
              overrides=None):
    set_seed(seed)
    model = build_model(model_name, seq_len=SEQ, pred_len=PRED, c_in=CIN,
                        task=task, preset="tiny", **(overrides or {}))
    meta = {"model": model_name, "dataset": "unit", "task": task,
            "seq_len": SEQ, "pred_len": PRED, "c_in": CIN, "preset": "tiny"}
    if overrides:
        meta["overrides"] = overrides
    save_checkpoint(model, str(path), metadata=meta)
    return str(path)


def periodic_window(period, seed=0):
    """A window whose dominant spectral pick is controlled by ``period``."""
    rng = np.random.default_rng(seed)
    t = np.arange(SEQ)[:, None]
    return (np.sin(2 * np.pi * t / period) * 3.0
            + 0.01 * rng.standard_normal((SEQ, CIN)))


@pytest.fixture
def registry(tmp_path):
    reg = ModelRegistry(expect_task="forecast")
    reg.load("dlinear", make_ckpt(tmp_path / "dlinear.npz", "DLinear"))
    return reg


@pytest.fixture
def ts3_registry(tmp_path):
    reg = ModelRegistry(expect_task="forecast")
    reg.load("ts3net", make_ckpt(tmp_path / "ts3net.npz", "TS3Net"))
    return reg


class TestRegistry:
    def test_batch_policies(self, tmp_path):
        models = {
            "DLinear": "stack", "PatchTST": "stack",
            "TS3Net": "signature", "TimesNet": "solo", "Autoformer": "solo",
        }
        for name, expected in models.items():
            model = build_model(name, seq_len=SEQ, pred_len=PRED, c_in=CIN,
                                task="forecast", preset="tiny")
            assert resolve_batch_policy(model) == expected, name

    def test_load_and_describe(self, registry):
        entry = registry.get("dlinear")
        assert entry.seq_len == SEQ and entry.c_in == CIN
        assert entry.policy == "stack" and entry.version == 1
        (desc,) = registry.describe()
        assert desc["name"] == "dlinear"
        assert desc["batch_policy"] == "stack"
        assert registry.default_name() == "dlinear"

    def test_rejects_bare_archive(self, tmp_path):
        path = str(tmp_path / "bare.npz")
        np.savez(path, weight=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="missing metadata"):
            ModelRegistry().load("m", path)

    def test_rejects_wrong_task(self, tmp_path):
        path = make_ckpt(tmp_path / "imp.npz", "DLinear", task="imputation")
        with pytest.raises(ValueError, match="imputation"):
            ModelRegistry(expect_task="forecast").load("m", path)

    def test_rejects_duplicate_name(self, registry, tmp_path):
        with pytest.raises(ValueError, match="already registered"):
            registry.load("dlinear", make_ckpt(tmp_path / "b.npz"))

    def test_unknown_model(self, registry):
        with pytest.raises(UnknownModelError):
            registry.get("nope")

    def test_reload_bumps_version_and_swaps_weights(self, registry, tmp_path):
        old = registry.get("dlinear")
        new_path = make_ckpt(tmp_path / "v2.npz", "DLinear", seed=7)
        entry = registry.reload("dlinear", new_path)
        assert entry.version > old.version
        assert registry.get("dlinear") is entry
        window = periodic_window(8)
        assert repr(single_forward(old, window)) != \
            repr(single_forward(entry, window))

    def test_reload_failure_keeps_old_entry(self, registry, tmp_path):
        old = registry.get("dlinear")
        bad = str(tmp_path / "bad.npz")
        np.savez(bad, weight=np.zeros(2))
        with pytest.raises(ValueError):
            registry.reload("dlinear", bad)
        assert registry.get("dlinear") is old

    def test_overrides_rebuild_model(self, tmp_path):
        path = make_ckpt(tmp_path / "deep.npz", "PatchTST",
                         overrides={"num_layers": 3, "d_model": 8,
                                    "d_ff": 8, "n_heads": 2})
        entry = ModelRegistry().load("deep", path)
        out = single_forward(entry, periodic_window(8))
        assert out.shape == (PRED, CIN)


class TestBatcherDeterminism:
    def test_flush_on_size_bitwise_equal(self, registry):
        entry = registry.get("dlinear")
        windows = [periodic_window(p, seed=i)
                   for i, p in enumerate((4, 6, 8, 16))]
        reference = [single_forward(entry, w) for w in windows]

        metrics = ServerMetrics()
        batcher = MicroBatcher(registry, max_batch_size=4, max_wait_ms=5000,
                               metrics=metrics, start=False)
        futures = [batcher.submit("dlinear", w) for w in windows]
        batcher.start()
        results = [f.result(timeout=10) for f in futures]
        batcher.close()

        for got, want in zip(results, reference):
            assert repr(got) == repr(want)
        # one stacked forward of all four windows, flushed by size
        assert metrics.snapshot()["batch_sizes"] == {4: 1}

    def test_flush_on_timeout(self, registry):
        metrics = ServerMetrics()
        batcher = MicroBatcher(registry, max_batch_size=64, max_wait_ms=30,
                               metrics=metrics, start=False)
        windows = [periodic_window(5, seed=i) for i in range(3)]
        futures = [batcher.submit("dlinear", w) for w in windows]
        start = time.monotonic()
        batcher.start()
        results = [f.result(timeout=10) for f in futures]
        assert time.monotonic() - start < 5  # timeout flush, not size flush
        batcher.close()
        entry = registry.get("dlinear")
        for got, w in zip(results, windows):
            assert repr(got) == repr(single_forward(entry, w))
        assert sum(metrics.snapshot()["batch_sizes"].values()) >= 1

    def test_signature_policy_groups_equal_spectra(self, ts3_registry):
        entry = ts3_registry.get("ts3net")
        assert entry.policy == "signature"
        # two windows per dominant period: same-signature windows may share
        # a stacked forward, different signatures must not
        windows = ([periodic_window(4, seed=i) for i in range(2)]
                   + [periodic_window(11, seed=i) for i in range(2)])
        reference = [single_forward(entry, w) for w in windows]

        metrics = ServerMetrics()
        batcher = MicroBatcher(ts3_registry, max_batch_size=4,
                               max_wait_ms=5000, metrics=metrics, start=False)
        futures = [batcher.submit("ts3net", w) for w in windows]
        batcher.start()
        results = [f.result(timeout=30) for f in futures]
        batcher.close()

        for got, want in zip(results, reference):
            assert repr(got) == repr(want)
        assert metrics.snapshot()["batch_sizes"] == {2: 2}

    def test_validation_errors(self, registry):
        batcher = MicroBatcher(registry, start=False)
        with pytest.raises(InvalidWindowError, match="shape"):
            batcher.submit("dlinear", np.zeros((SEQ + 1, CIN)))
        with pytest.raises(InvalidWindowError, match="NaN"):
            bad = periodic_window(8)
            bad[3, 1] = np.nan
            batcher.submit("dlinear", bad)
        with pytest.raises(UnknownModelError):
            batcher.submit("missing", periodic_window(8))


class TestAdmissionControl:
    def test_queue_full_sheds(self, registry):
        batcher = MicroBatcher(registry, queue_size=2, start=False)
        batcher.submit("dlinear", periodic_window(4))
        batcher.submit("dlinear", periodic_window(5))
        with pytest.raises(QueueFullError):
            batcher.submit("dlinear", periodic_window(6))

    def test_deadline_expiry(self, registry):
        batcher = MicroBatcher(registry, start=False)
        future = batcher.submit("dlinear", periodic_window(8), timeout_s=0.01)
        time.sleep(0.05)
        batcher.start()
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=10)
        batcher.close()

    def test_close_drains_queued_work(self, registry):
        batcher = MicroBatcher(registry, max_batch_size=2, start=False)
        futures = [batcher.submit("dlinear", periodic_window(4, seed=i))
                   for i in range(3)]
        batcher.start()
        batcher.close(drain=True)
        entry = registry.get("dlinear")
        for f, i in zip(futures, range(3)):
            assert repr(f.result(timeout=0.1)) == \
                repr(single_forward(entry, periodic_window(4, seed=i)))
        with pytest.raises(BatcherClosedError):
            batcher.submit("dlinear", periodic_window(4))

    def test_close_without_drain_fails_queued_work(self, registry):
        batcher = MicroBatcher(registry, start=False)
        future = batcher.submit("dlinear", periodic_window(4))
        batcher.close(drain=False)   # worker never ran; now discard
        batcher.start()
        with pytest.raises(BatcherClosedError):
            future.result(timeout=10)


class TestHotReloadAtomicity:
    def test_concurrent_submits_see_old_or_new(self, registry, tmp_path):
        old = registry.get("dlinear")
        window = periodic_window(8)
        want_old = repr(single_forward(old, window))

        batcher = MicroBatcher(registry, max_batch_size=4, max_wait_ms=1)
        results, stop = [], threading.Event()

        def hammer():
            while not stop.is_set():
                results.append(
                    batcher.submit("dlinear", window).result(timeout=10))

        thread = threading.Thread(target=hammer)
        thread.start()
        time.sleep(0.05)
        new = registry.reload(
            "dlinear", make_ckpt(tmp_path / "v2.npz", "DLinear", seed=9))
        time.sleep(0.05)
        stop.set()
        thread.join(timeout=10)
        batcher.close()

        want_new = repr(single_forward(new, window))
        assert want_old != want_new
        seen = {repr(r) for r in results}
        # every response matches exactly one complete checkpoint — a torn
        # read during the swap would produce a third value
        assert seen <= {want_old, want_new}
        assert want_new in seen


class TestMetrics:
    def test_counters_and_render(self):
        metrics = ServerMetrics()
        for code, lat in ((200, 0.01), (200, 0.02), (404, None), (503, None)):
            metrics.observe_request(code, lat)
        metrics.observe_batch(4)
        metrics.observe_batch(4)
        metrics.observe_batch(1)
        metrics.set_queue_depth_fn(lambda: 7)

        snap = metrics.snapshot()
        assert snap["requests_by_code"] == {200: 2, 404: 1, 503: 1}
        assert snap["requests_by_class"] == {"2xx": 2, "4xx": 1, "5xx": 1}
        assert snap["batch_sizes"] == {4: 2, 1: 1}
        assert snap["queue_depth"] == 7

        text = metrics.render()
        assert 'repro_requests_total{code="200",class="2xx"} 2' in text
        assert "repro_queue_depth 7" in text
        assert 'repro_batch_size_bucket{le="4"}' in text
        assert 'repro_request_latency_seconds{quantile="0.99"}' in text

    def test_quantiles_ordered(self):
        metrics = ServerMetrics()
        rng = np.random.default_rng(0)
        for lat in rng.uniform(0.001, 0.2, size=500):
            metrics.observe_request(200, float(lat))
        q = metrics.latency_quantiles()
        assert q[0.5] <= q[0.95] <= q[0.99]

    def test_render_golden(self):
        """The registry-backed renderer is byte-identical to the original.

        This literal was captured from the pre-registry ``ServerMetrics``
        (PR 4): the refactor onto ``repro.obs.metrics`` primitives must
        not move a single byte of the exposition for existing series.
        """
        metrics = ServerMetrics()
        metrics.observe_request(200, 0.01)
        metrics.observe_request(200, 0.3)
        metrics.observe_request(404)
        metrics.observe_request(503)
        metrics.observe_batch(1)
        metrics.observe_batch(4)
        metrics.observe_batch(4)
        metrics.set_queue_depth_fn(lambda: 3)
        expected = "\n".join([
            "# HELP repro_requests_total HTTP requests served, by status code.",
            "# TYPE repro_requests_total counter",
            'repro_requests_total{code="200",class="2xx"} 2',
            'repro_requests_total{code="404",class="4xx"} 1',
            'repro_requests_total{code="503",class="5xx"} 1',
            "# HELP repro_requests_class_total HTTP requests, by status class.",
            "# TYPE repro_requests_class_total counter",
            'repro_requests_class_total{class="2xx"} 2',
            'repro_requests_class_total{class="4xx"} 1',
            'repro_requests_class_total{class="5xx"} 1',
            "# HELP repro_queue_depth Windows waiting in the batcher queue.",
            "# TYPE repro_queue_depth gauge",
            "repro_queue_depth 3",
            "# HELP repro_batch_size Executed micro-batch sizes.",
            "# TYPE repro_batch_size histogram",
            'repro_batch_size_bucket{le="1"} 1',
            'repro_batch_size_bucket{le="4"} 3',
            'repro_batch_size_bucket{le="+Inf"} 3',
            "repro_batch_size_sum 9",
            "repro_batch_size_count 3",
            "# HELP repro_request_latency_seconds Forecast request latency.",
            "# TYPE repro_request_latency_seconds histogram",
            'repro_request_latency_seconds_bucket{le="0.001"} 0',
            'repro_request_latency_seconds_bucket{le="0.0025"} 0',
            'repro_request_latency_seconds_bucket{le="0.005"} 0',
            'repro_request_latency_seconds_bucket{le="0.01"} 1',
            'repro_request_latency_seconds_bucket{le="0.025"} 1',
            'repro_request_latency_seconds_bucket{le="0.05"} 1',
            'repro_request_latency_seconds_bucket{le="0.1"} 1',
            'repro_request_latency_seconds_bucket{le="0.25"} 1',
            'repro_request_latency_seconds_bucket{le="0.5"} 2',
            'repro_request_latency_seconds_bucket{le="1.0"} 2',
            'repro_request_latency_seconds_bucket{le="2.5"} 2',
            'repro_request_latency_seconds_bucket{le="5.0"} 2',
            'repro_request_latency_seconds_bucket{le="+Inf"} 2',
            "repro_request_latency_seconds_sum 0.310000",
            "repro_request_latency_seconds_count 2",
            'repro_request_latency_seconds{quantile="0.5"} 0.010000',
            'repro_request_latency_seconds{quantile="0.95"} 0.300000',
            'repro_request_latency_seconds{quantile="0.99"} 0.300000',
        ]) + "\n"
        assert metrics.render() == expected


class _Client:
    """Minimal JSON client for the end-to-end tests."""

    def __init__(self, host, port):
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method, path, payload=None, raw=None):
        body = raw if raw is not None else (
            json.dumps(payload).encode() if payload is not None else None)
        self.conn.request(method, path, body,
                          {"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        data = resp.read()
        try:
            parsed = json.loads(data)
        except (ValueError, UnicodeDecodeError):
            parsed = data.decode("utf-8", "replace")
        return resp.status, parsed, dict(resp.getheaders())


@pytest.fixture
def server(registry):
    config = ServingConfig(port=0, max_batch_size=4, max_wait_ms=1.0,
                           queue_size=32, default_timeout_ms=10000.0)
    srv = build_server(config, registry)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=10)
    srv.drain()


class TestHTTPServer:
    def test_forecast_single_window_bitwise(self, server, registry):
        host, port = server.server_address[:2]
        window = periodic_window(6)
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/forecast", {"window": window.tolist()})
        assert status == 200
        assert body["model"] == "dlinear" and body["version"] == 1
        want = single_forward(registry.get("dlinear"), window)
        # JSON repr round-trips float64 exactly, so even over HTTP the
        # batched prediction is bit-identical to the reference forward
        got = np.asarray(body["prediction"], dtype=np.float64)
        assert got.shape == (PRED, CIN)
        assert repr(got) == repr(want)

    def test_forecast_client_batch(self, server):
        host, port = server.server_address[:2]
        windows = [periodic_window(4, seed=i).tolist() for i in range(3)]
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/forecast", {"windows": windows})
        assert status == 200
        assert len(body["predictions"]) == 3
        assert "prediction" not in body

    def test_structured_errors(self, server):
        host, port = server.server_address[:2]
        client = _Client(host, port)
        status, body, _ = client.request(
            "POST", "/v1/forecast",
            {"model": "nope", "window": periodic_window(4).tolist()})
        assert status == 404 and body["error"]["type"] == "unknown_model"

        status, body, _ = client.request(
            "POST", "/v1/forecast", {"window": [[1.0] * CIN] * (SEQ - 1)})
        assert status == 400 and body["error"]["type"] == "invalid_window"

        status, body, _ = client.request(
            "POST", "/v1/forecast", raw=b"{not json")
        assert status == 400 and body["error"]["type"] == "invalid_json"

        status, body, _ = client.request("POST", "/v1/forecast", {})
        assert status == 400 and body["error"]["type"] == "invalid_request"

        status, body, _ = client.request(
            "POST", "/v1/forecast",
            {"window": periodic_window(4).tolist(), "timeout_ms": "soon"})
        assert status == 400

    def test_non_integer_content_length_is_a_counted_400(self, server,
                                                          raw_http):
        request = (b"POST /v1/forecast HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Content-Length: abc\r\n\r\n{}")
        # The body's extent is unknown, so the server answers and closes
        # the connection (raw_http reads to EOF; it would hang otherwise).
        status, body = raw_http(server.server_address, request)
        assert status == 400
        assert json.loads(body)["error"]["type"] == "invalid_request"
        host, port = server.server_address[:2]
        _, text, _ = _Client(host, port).request("GET", "/metrics")
        assert 'repro_requests_total{code="400",class="4xx"} 1' in text

    def test_models_health_metrics_endpoints(self, server):
        host, port = server.server_address[:2]
        client = _Client(host, port)
        status, body, _ = client.request("GET", "/healthz")
        assert status == 200 and body["status"] == "ok"

        status, body, _ = client.request("GET", "/v1/models")
        assert status == 200
        assert body["models"][0]["name"] == "dlinear"
        assert body["models"][0]["batch_policy"] == "stack"

        client.request("POST", "/v1/forecast",
                       {"window": periodic_window(4).tolist()})
        status, text, headers = client.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_requests_total" in text
        assert 'quantile="0.95"' in text
        assert "repro_batch_size_count" in text
        assert "repro_queue_depth" in text

        status, _, _ = client.request("GET", "/nope")
        assert status == 404

    def test_overload_returns_503_with_retry_after(self, registry):
        # a batcher that never executes, with a one-slot queue: the second
        # request must be shed immediately, not queued behind the first
        metrics = ServerMetrics()
        from repro.serving.server import ForecastServer
        config = ServingConfig(port=0, queue_size=1)
        batcher = MicroBatcher(registry, queue_size=1, metrics=metrics,
                               start=False)
        srv = ForecastServer(config, registry, batcher=batcher,
                             metrics=metrics)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = srv.server_address[:2]
            batcher.submit("dlinear", periodic_window(4))  # occupy the slot
            status, body, headers = _Client(host, port).request(
                "POST", "/v1/forecast",
                {"window": periodic_window(5).tolist(), "timeout_ms": 500})
            assert status == 503
            assert body["error"]["type"] == "overloaded"
            assert "Retry-After" in headers
            # the handler records the request just after sending the
            # response bytes, so give the counter a moment to land
            deadline = time.monotonic() + 2.0
            while (metrics.snapshot()["requests_by_code"].get(503) != 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert metrics.snapshot()["requests_by_code"].get(503) == 1
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            batcher.close(drain=False)
            srv.server_close()

    def test_expired_deadline_returns_504(self, registry):
        from repro.serving.server import ForecastServer
        config = ServingConfig(port=0)
        batcher = MicroBatcher(registry, start=False)  # never executes
        srv = ForecastServer(config, registry, batcher=batcher)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = srv.server_address[:2]
            status, body, _ = _Client(host, port).request(
                "POST", "/v1/forecast",
                {"window": periodic_window(4).tolist(), "timeout_ms": 50})
            assert status == 504
            assert body["error"]["type"] == "deadline_exceeded"
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            batcher.close(drain=False)
            srv.server_close()

    def test_drain_completes_inflight_requests(self, registry):
        config = ServingConfig(port=0, max_batch_size=4, max_wait_ms=50.0)
        srv = build_server(config, registry)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        host, port = srv.server_address[:2]

        outcome = {}

        def slow_request():
            outcome["status"], outcome["body"], _ = _Client(
                host, port).request(
                    "POST", "/v1/forecast",
                    {"window": periodic_window(4).tolist()})

        req = threading.Thread(target=slow_request)
        req.start()
        time.sleep(0.01)             # request is likely waiting in the batch
        srv.shutdown()
        thread.join(timeout=10)
        srv.drain()                  # must flush the pending batch
        req.join(timeout=10)
        assert outcome.get("status") == 200
        assert np.asarray(outcome["body"]["prediction"]).shape == (PRED, CIN)


class TestServingTrace:
    """Request spans: X-Trace-Id header + batcher trace propagation."""

    def test_no_header_without_observer(self, server):
        from repro.obs import runtime as obs_runtime
        before = obs_runtime.swap(None)  # mask any session-level observer
        try:
            host, port = server.server_address[:2]
            _, _, headers = _Client(host, port).request("GET", "/healthz")
        finally:
            obs_runtime.swap(before)
        assert "X-Trace-Id" not in headers

    def test_x_trace_id_links_request_and_batch_spans(self, registry,
                                                      tmp_path):
        from repro.obs import runtime as obs_runtime
        from repro.obs.events import read_events

        trace_path = str(tmp_path / "serve.jsonl")
        obs_runtime.configure(path=trace_path)
        config = ServingConfig(port=0, max_batch_size=4, max_wait_ms=1.0,
                               queue_size=32, default_timeout_ms=10000.0)
        srv = build_server(config, registry)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = srv.server_address[:2]
            status, _, headers = _Client(host, port).request(
                "POST", "/v1/forecast",
                {"window": periodic_window(6).tolist()})
            assert status == 200
            trace_id = headers["X-Trace-Id"]
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.drain()
            obs_runtime.shutdown()

        recs = read_events(trace_path)
        reqs = [r for r in recs if r["kind"] == "span_end"
                and r["name"] == "http.request"]
        assert [r for r in reqs if r["trace"] == trace_id], \
            "X-Trace-Id must match the request span's trace id"
        span = next(r for r in reqs if r["trace"] == trace_id)
        assert span["attrs"]["status_code"] == 200
        assert span["attrs"]["method"] == "POST"

        batches = [r for r in recs if r["name"] == "batch.execute"]
        assert batches, "the stacked forward must emit a batch.execute span"
        linked = [b for b in batches
                  if trace_id in b["attrs"]["member_traces"]]
        assert linked, "batch.execute must link its member request traces"
        assert span["span"] in linked[0]["attrs"]["member_spans"]


def make_task_ckpt(path, task, model_name="DLinear", seed=0):
    """Checkpoint for any registered task, with its required metadata."""
    set_seed(seed)
    meta = {"model": model_name, "dataset": "unit", "task": task,
            "seq_len": SEQ, "c_in": CIN, "preset": "tiny"}
    if task == "forecast":
        model = build_model(model_name, seq_len=SEQ, pred_len=PRED, c_in=CIN,
                            task="forecast", preset="tiny")
        meta["pred_len"] = PRED
    elif task in ("imputation", "anomaly"):
        model = build_model(model_name, seq_len=SEQ, pred_len=SEQ, c_in=CIN,
                            task="imputation", preset="tiny")
        meta["pred_len"] = SEQ
        if task == "imputation":
            meta["mask_ratio"] = 0.25
        else:
            meta["anomaly_ratio"] = 0.01
    else:  # classification
        from repro.tasks import SeriesClassifier
        backbone = build_model("TS3Net", seq_len=SEQ, pred_len=SEQ, c_in=CIN,
                               task="classification", preset="tiny")
        model = SeriesClassifier(backbone, d_model=backbone.config.d_model,
                                 num_classes=3)
        meta.update(model="TS3Net", pred_len=SEQ,
                    num_classes=3, d_model=backbone.config.d_model)
    save_checkpoint(model, str(path), metadata=meta)
    return str(path)


@pytest.fixture
def task_server(tmp_path):
    """One server hosting a model per registered task endpoint."""
    reg = ModelRegistry()
    for task in ("forecast", "imputation", "anomaly", "classification"):
        reg.load(task + "-m", make_task_ckpt(tmp_path / f"{task}.npz", task))
    config = ServingConfig(port=0, max_batch_size=4, max_wait_ms=1.0,
                           queue_size=32, default_timeout_ms=10000.0)
    srv = build_server(config, reg)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv, reg
    srv.shutdown()
    thread.join(timeout=10)
    srv.drain()


class TestPerTaskEndpoints:
    """Every registered TaskSpec gets a POST /v1/<task> endpoint, and the
    batched outputs stay bit-identical to single forwards per task."""

    def test_imputation_reconstruction_bitwise(self, task_server):
        srv, reg = task_server
        host, port = srv.server_address[:2]
        window = periodic_window(6)
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/imputation",
            {"model": "imputation-m", "window": window.tolist()})
        assert status == 200
        assert body["seq_len"] == SEQ
        want = single_forward(reg.get("imputation-m"), window)
        got = np.asarray(body["reconstruction"], dtype=np.float64)
        assert got.shape == (SEQ, CIN)
        assert repr(got) == repr(want)

    def test_anomaly_scores_bitwise(self, task_server):
        srv, reg = task_server
        host, port = srv.server_address[:2]
        window = periodic_window(5)
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/anomaly",
            {"model": "anomaly-m", "window": window.tolist(),
             "anomaly_ratio": 0.1})
        assert status == 200
        recon = single_forward(reg.get("anomaly-m"), window)
        want = np.abs(recon - window).mean(axis=-1)
        got = np.asarray(body["score"]["scores"], dtype=np.float64)
        assert repr(got) == repr(want)
        threshold = float(np.quantile(want, 0.9))
        assert body["score"]["threshold"] == threshold
        assert body["score"]["detections"] == (want > threshold).tolist()

    def test_anomaly_client_batch_matches_singles(self, task_server):
        srv, reg = task_server
        host, port = srv.server_address[:2]
        windows = [periodic_window(4, seed=i) for i in range(3)]
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/anomaly",
            {"model": "anomaly-m", "windows": [w.tolist() for w in windows]})
        assert status == 200
        assert len(body["scores"]) == 3
        entry = reg.get("anomaly-m")
        for row, window in zip(body["scores"], windows):
            want = np.abs(single_forward(entry, window) - window).mean(axis=-1)
            assert repr(np.asarray(row["scores"])) == repr(want)

    def test_anomaly_invalid_ratio_is_400(self, task_server):
        srv, _ = task_server
        host, port = srv.server_address[:2]
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/anomaly",
            {"model": "anomaly-m", "window": periodic_window(4).tolist(),
             "anomaly_ratio": 1.5})
        assert status == 400
        assert body["error"]["type"] == "invalid_request"
        assert "anomaly_ratio" in body["error"]["detail"]

    def test_classification_label_bitwise(self, task_server):
        srv, reg = task_server
        host, port = srv.server_address[:2]
        window = periodic_window(7)
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/classification",
            {"model": "classification-m", "window": window.tolist()})
        assert status == 200
        logits = single_forward(reg.get("classification-m"), window)
        assert body["classification"]["label"] == int(np.argmax(logits))
        got = np.asarray(body["classification"]["logits"], dtype=np.float64)
        assert repr(got) == repr(logits)

    def test_unknown_task_endpoint_names_known(self, task_server):
        srv, _ = task_server
        host, port = srv.server_address[:2]
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/nonsense",
            {"window": periodic_window(4).tolist()})
        assert status == 404
        assert body["error"]["type"] == "unknown_task"
        for task in ("forecast", "imputation", "anomaly", "classification"):
            assert f"/v1/{task}" in body["error"]["detail"]

    def test_task_mismatch_is_400(self, task_server):
        srv, _ = task_server
        host, port = srv.server_address[:2]
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/forecast",
            {"model": "imputation-m", "window": periodic_window(4).tolist()})
        assert status == 400
        assert body["error"]["type"] == "task_mismatch"
        assert "/v1/imputation" in body["error"]["detail"]

    def test_default_model_resolved_per_task(self, task_server):
        # Four models are registered but each task has exactly one, so a
        # request without "model" must resolve to that task's model.
        srv, _ = task_server
        host, port = srv.server_address[:2]
        status, body, _ = _Client(host, port).request(
            "POST", "/v1/imputation",
            {"window": periodic_window(6).tolist()})
        assert status == 200
        assert body["model"] == "imputation-m"
