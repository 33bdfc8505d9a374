"""Tests for the pre-fork serving cluster (repro.serving.cluster).

Covers the spool's copy-on-write weight blobs, consistent-hash routing,
exposition merging, worker supervision (crash -> respawn), cluster-wide
hot reload atomicity, drain semantics, adaptive 503 Retry-After, and
cross-process trace propagation.  The end-to-end tests boot real worker
processes (fork) against ephemeral ports.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.baselines import build_model
from repro.nn import read_checkpoint, save_checkpoint
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    MicroBatcher, ModelRegistry, ServingConfig, single_forward,
)
from repro.serving.cluster import (
    BlobFormatError, ClusterConfig, ExpositionError, HashRing,
    NoWorkerAvailable, Router, SharedWeights, WeightStore, build_cluster,
    merge_expositions, parse_exposition, stable_hash,
)
from repro.serving.metrics import ServerMetrics
from repro.utils import set_seed

SEQ, PRED, CIN = 32, 8, 3


def make_ckpt(path, model_name="DLinear", task="forecast", seed=0):
    set_seed(seed)
    model = build_model(model_name, seq_len=SEQ, pred_len=PRED, c_in=CIN,
                        task=task, preset="tiny")
    meta = {"model": model_name, "dataset": "unit", "task": task,
            "seq_len": SEQ, "pred_len": PRED, "c_in": CIN, "preset": "tiny"}
    save_checkpoint(model, str(path), metadata=meta)
    return str(path)


def periodic_window(period, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(SEQ)[:, None]
    return (np.sin(2 * np.pi * t / period) * 3.0
            + 0.01 * rng.standard_normal((SEQ, CIN)))


# ----------------------------------------------------------------------
class TestSharedWeights:
    def test_publish_attach_roundtrip_bitwise(self, tmp_path):
        ckpt = make_ckpt(tmp_path / "m.npz")
        store = WeightStore(str(tmp_path / "spool"))
        version, blob = store.publish("m", ckpt)
        assert version == 1 and store.current_version("m") == 1
        assert store.names() == ["m"]

        state, meta = read_checkpoint(ckpt)
        shared = store.attach("m")
        assert shared.version == 1
        assert shared.meta["model"] == "DLinear"
        assert set(shared.arrays) == set(state)
        for name, arr in state.items():
            assert shared.arrays[name].dtype == arr.dtype
            np.testing.assert_array_equal(shared.arrays[name], arr)

    def test_copy_on_write_isolation(self, tmp_path):
        ckpt = make_ckpt(tmp_path / "m.npz")
        store = WeightStore(str(tmp_path / "spool"))
        store.publish("m", ckpt)
        a, b = store.attach("m"), store.attach("m")
        name = next(iter(a.arrays))
        before = b.arrays[name].copy()
        # a stray in-place write in one attachment must not leak into a
        # sibling (private COW page) nor into the blob on disk
        a.arrays[name][...] = 123.0
        np.testing.assert_array_equal(b.arrays[name], before)
        np.testing.assert_array_equal(store.attach("m").arrays[name], before)

    def test_attached_forward_matches_checkpoint_load(self, tmp_path):
        ckpt = make_ckpt(tmp_path / "m.npz")
        store = WeightStore(str(tmp_path / "spool"))
        version, _ = store.publish("m", ckpt)

        plain = ModelRegistry()
        plain.load("m", ckpt)
        attached = ModelRegistry()
        entry = attached.load_attached("m", store.attach("m"),
                                       version=version)
        assert entry.version == version
        window = periodic_window(6)
        assert repr(single_forward(entry, window)) == \
            repr(single_forward(plain.get("m"), window))

    def test_version_bumps_and_pointer_swap(self, tmp_path):
        store = WeightStore(str(tmp_path / "spool"))
        store.publish("m", make_ckpt(tmp_path / "a.npz", seed=0))
        version, _ = store.publish("m", make_ckpt(tmp_path / "b.npz", seed=9))
        assert version == 2 and store.current_version("m") == 2
        # older versions stay attachable for in-flight consumers
        assert store.attach("m", 1).version == 1

    def test_bad_blob_rejected(self, tmp_path):
        bad = tmp_path / "bad.blob"
        bad.write_bytes(b"definitely not a blob header")
        with pytest.raises(BlobFormatError, match="magic"):
            SharedWeights(str(bad))

    def test_registry_version_counter_stays_monotonic(self, tmp_path):
        ckpt = make_ckpt(tmp_path / "m.npz")
        store = WeightStore(str(tmp_path / "spool"))
        store.publish("m", ckpt)
        store.publish("m", ckpt)
        registry = ModelRegistry()
        registry.load_attached("m", store.attach("m"))   # version 2
        entry = registry.reload("m", ckpt)               # plain reload
        assert entry.version == 3


# ----------------------------------------------------------------------
class TestRouting:
    def test_stable_hash_is_process_independent(self):
        # sha256-derived: the same literal must hash identically in every
        # process/run (unlike hash() under PYTHONHASHSEED)
        assert stable_hash("dlinear") == stable_hash("dlinear")
        assert stable_hash("dlinear") != stable_hash("ts3net")
        assert 0 <= stable_hash("x") < 2 ** 64

    def test_preference_is_deterministic_and_distinct(self):
        ring = HashRing([0, 1, 2, 3])
        order = ring.preference("dlinear")
        assert sorted(order) == [0, 1, 2, 3]
        assert order == HashRing([0, 1, 2, 3]).preference("dlinear")

    def test_lookup_spills_over_dead_workers_deterministically(self):
        ring = HashRing([0, 1, 2, 3])
        order = ring.preference("m")
        home = order[0]
        assert ring.lookup("m") == home
        assert ring.lookup("m", alive=[w for w in order if w != home]) \
            == order[1]
        with pytest.raises(NoWorkerAvailable):
            ring.lookup("m", alive=[])

    def test_route_rotates_warm_set_over_all_alive(self):
        router = Router(HashRing([0, 1, 2, 3]), spread=0)
        first_choices = {router.route("m", [0, 1, 2, 3])[0]
                         for _ in range(16)}
        assert first_choices == {0, 1, 2, 3}

    def test_route_with_spread_keeps_warm_set_then_spills(self):
        ring = HashRing([0, 1, 2, 3])
        router = Router(ring, spread=2)
        warm = ring.preference("m")[:2]
        for _ in range(8):
            order = router.route("m", [0, 1, 2, 3])
            assert set(order[:2]) == set(warm)
            assert order[2:] == ring.preference("m")[2:]

    def test_route_raises_when_everyone_is_dead(self):
        router = Router(HashRing([0, 1]))
        with pytest.raises(NoWorkerAvailable):
            router.route("m", [])


# ----------------------------------------------------------------------
class TestExpositionMerge:
    def _render(self, codes):
        metrics = ServerMetrics()
        for code, lat in codes:
            metrics.observe_request(code, lat)
        metrics.observe_batch(2)
        metrics.set_queue_depth_fn(lambda: 1)
        return metrics.render()

    def test_merge_sums_counters_and_maxes_quantiles(self):
        a = self._render([(200, 0.01), (503, None)])
        b = self._render([(200, 0.30)])
        merged = parse_exposition(merge_expositions([a, b]))
        by_series = {(s, labels): value
                     for block in merged
                     for s, labels, value, _ in block["samples"]}
        assert by_series[("repro_requests_total",
                          (("code", "200"), ("class", "2xx")))] == 2
        assert by_series[("repro_requests_total",
                          (("code", "503"), ("class", "5xx")))] == 1
        assert by_series[("repro_queue_depth", ())] == 2
        assert by_series[("repro_batch_size_count", ())] == 2
        # quantiles take the worst worker, not a (meaningless) sum
        assert by_series[("repro_request_latency_seconds",
                          (("quantile", "0.99"),))] == pytest.approx(0.30)

    def test_merge_is_byte_stable_golden(self):
        """Identical worker registries merge into a predictable text."""
        metrics = ServerMetrics(
            registry=__import__("repro.obs.metrics",
                                fromlist=["MetricsRegistry"]).MetricsRegistry())
        metrics.observe_request(200, 0.01)
        metrics.set_queue_depth_fn(lambda: 0)
        text = metrics.render()
        merged_once = merge_expositions([text, text])
        assert merged_once == merge_expositions([text, text])
        assert 'repro_requests_total{code="200",class="2xx"} 2' in merged_once
        assert merged_once.endswith("\n")
        # int-rendered sources stay int-rendered after summation
        assert "repro_requests_total{" in merged_once
        assert " 2.000000" not in merged_once.split("quantile")[0]

    def test_merge_round_trips_escaped_labels(self):
        value = 'a"b\\c\nd'           # quote, backslash, newline
        texts = []
        for count in (1, 2):
            registry = MetricsRegistry()
            registry.counter("repro_x_total", "Escapes.").inc(
                count, labels={"model": value})
            texts.append(registry.render())
        (block,) = parse_exposition(merge_expositions(texts))
        assert [s[:3] for s in block["samples"]] == [
            ("repro_x_total", (("model", value),), 3)]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ExpositionError):
            parse_exposition("repro_x{le=} 1")
        with pytest.raises(ExpositionError):
            parse_exposition("# HELP m h\n# TYPE m counter\nm not_a_number")
        with pytest.raises(ExpositionError):
            parse_exposition("orphan_sample 1")


# ----------------------------------------------------------------------
class _Client:
    def __init__(self, host, port, timeout=30):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

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


def start_cluster(tmp_path, checkpoints, workers=2, **cfg_kwargs):
    serving = cfg_kwargs.pop("serving", None) or ServingConfig(
        port=0, max_batch_size=4, max_wait_ms=1.0, queue_size=64,
        default_timeout_ms=10000.0)
    config = ClusterConfig(workers=workers, port=0,
                           spool_dir=str(tmp_path / "spool"),
                           serving=serving, **cfg_kwargs)
    server = build_cluster(config, checkpoints)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, thread


def stop_cluster(server, thread):
    server.shutdown()
    thread.join(timeout=10)
    server.drain()


@pytest.fixture
def cluster(tmp_path):
    ckpt = make_ckpt(tmp_path / "dlinear.npz")
    server, thread = start_cluster(tmp_path, {"dlinear": ckpt})
    yield server, ckpt
    stop_cluster(server, thread)


class TestClusterEndToEnd:
    def test_proxied_forecast_bitwise_matches_single_forward(self, cluster):
        server, ckpt = cluster
        host, port = server.server_address[:2]
        reference = ModelRegistry()
        entry = reference.load("dlinear", ckpt)

        client = _Client(host, port)
        for seed in range(6):
            window = periodic_window(4 + seed, seed=seed)
            status, body, headers = client.request(
                "POST", "/v1/forecast", {"model": "dlinear",
                                         "window": window.tolist()})
            assert status == 200
            got = np.asarray(body["prediction"], dtype=np.float64)
            # JSON float64 round-trips exactly and the front end relays
            # worker bytes verbatim: bit-identity survives the extra hop
            assert repr(got) == repr(single_forward(entry, window))

    def test_client_batch_and_models_proxy(self, cluster):
        server, ckpt = cluster
        host, port = server.server_address[:2]
        client = _Client(host, port)
        windows = [periodic_window(4, seed=i).tolist() for i in range(5)]
        status, body, _ = client.request(
            "POST", "/v1/forecast", {"windows": windows})
        assert status == 200 and len(body["predictions"]) == 5

        status, body, _ = client.request("GET", "/v1/models")
        assert status == 200
        assert body["models"][0]["name"] == "dlinear"
        assert body["models"][0]["checkpoint"].startswith("shm://")

        status, body, _ = client.request("GET", "/healthz")
        assert status == 200 and body["alive"] == [0, 1]

    def test_aggregated_metrics_scrape(self, cluster):
        server, _ = cluster
        host, port = server.server_address[:2]
        client = _Client(host, port)
        for i in range(4):
            client.request("POST", "/v1/forecast",
                           {"window": periodic_window(5, seed=i).tolist()})
        status, text, headers = client.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_cluster_workers 2" in text
        assert "repro_cluster_workers_alive 2" in text
        # worker-side series, merged across the pool
        assert 'repro_requests_total{code="200",class="2xx"} 4' in text
        assert "repro_batch_size_count" in text
        # the merged section must equal a local merge of the worker
        # side-door scrapes (quiesced: no traffic between the reads)
        worker_texts = []
        for worker_id in server.pool.alive_ids():
            wport = server.pool.endpoint(worker_id)
            wstatus, wtext, _ = _Client(host, wport).request(
                "GET", "/admin/metrics")
            assert wstatus == 200
            worker_texts.append(wtext)
        assert text.endswith(merge_expositions(worker_texts))

    def test_non_integer_content_length_is_a_counted_400(self, cluster,
                                                          raw_http):
        server, _ = cluster
        request = (b"POST /v1/forecast HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Content-Length: abc\r\n\r\n{}")
        # raw_http reads to EOF: the front end must answer, then close.
        status, body = raw_http(server.server_address, request)
        assert status == 400
        assert json.loads(body)["error"]["type"] == "invalid_request"
        host, port = server.server_address[:2]
        _, text, _ = _Client(host, port).request("GET", "/metrics")
        assert ('repro_frontend_requests_total{code="400",class="4xx"} 1'
                in text)

    def test_admin_scrape_is_uncounted(self, cluster):
        server, _ = cluster
        host, _ = server.server_address[:2]
        wport = server.pool.endpoint(server.pool.alive_ids()[0])
        client = _Client(host, wport)
        _, first, _ = client.request("GET", "/admin/metrics")
        _, second, _ = client.request("GET", "/admin/metrics")
        assert first == second          # scraping does not perturb


class TestSupervision:
    def test_crash_respawn_resumes_correct_answers(self, tmp_path):
        ckpt = make_ckpt(tmp_path / "dlinear.npz")
        server, thread = start_cluster(tmp_path, {"dlinear": ckpt},
                                       supervise_interval_s=0.05)
        try:
            host, port = server.server_address[:2]
            victim = server.pool.alive_ids()[0]
            old_pid = server.pool.handles[victim].pid
            wport = server.pool.endpoint(victim)
            crasher = http.client.HTTPConnection(host, wport, timeout=5)
            with pytest.raises((http.client.HTTPException, OSError)):
                crasher.request("POST", "/admin/crash", b"{}")
                crasher.getresponse().read()

            deadline = time.monotonic() + 30
            handle = server.pool.handles[victim]
            while time.monotonic() < deadline:
                if handle.alive and handle.pid != old_pid:
                    break
                time.sleep(0.05)
            assert handle.alive and handle.pid != old_pid, \
                "supervisor must respawn the crashed worker"

            entry = ModelRegistry().load("dlinear", ckpt)
            window = periodic_window(7)
            status, body, _ = _Client(host, port).request(
                "POST", "/v1/forecast", {"window": window.tolist()})
            assert status == 200
            assert repr(np.asarray(body["prediction"])) == \
                repr(single_forward(entry, window))

            _, text, _ = _Client(host, port).request("GET", "/metrics")
            assert f'repro_cluster_worker_restarts_total{{worker="{victim}"}}' \
                in text
        finally:
            stop_cluster(server, thread)

    def test_hot_reload_mid_traffic_never_mixes_versions(self, tmp_path):
        old_ckpt = make_ckpt(tmp_path / "v1.npz", seed=0)
        new_ckpt = make_ckpt(tmp_path / "v2.npz", seed=9)
        server, thread = start_cluster(tmp_path, {"dlinear": old_ckpt})
        try:
            host, port = server.server_address[:2]
            window = periodic_window(8)
            want_old = repr(single_forward(
                ModelRegistry().load("m", old_ckpt), window))
            want_new = repr(single_forward(
                ModelRegistry().load("m", new_ckpt), window))
            assert want_old != want_new

            results, stop = [], threading.Event()

            def hammer():
                client = _Client(host, port)
                while not stop.is_set():
                    status, body, _ = client.request(
                        "POST", "/v1/forecast",
                        {"window": window.tolist()})
                    results.append((status, body))

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.2)
            status, body, _ = _Client(host, port).request(
                "POST", "/admin/reload",
                {"name": "dlinear", "checkpoint": new_ckpt})
            assert status == 200 and body["version"] == 2
            time.sleep(0.2)
            stop.set()
            for t in threads:
                t.join(timeout=10)

            assert results
            seen = set()
            for status, body in results:
                assert status == 200
                seen.add(repr(np.asarray(body["prediction"])))
            # a torn swap (mixed weight versions in one batch) would
            # produce a third repr; atomicity allows exactly old and new
            assert seen <= {want_old, want_new}

            status, body, _ = _Client(host, port).request(
                "POST", "/v1/forecast", {"window": window.tolist()})
            assert status == 200 and body["version"] == 2
            assert repr(np.asarray(body["prediction"])) == want_new
        finally:
            stop_cluster(server, thread)

    def test_drain_completes_in_flight_requests(self, tmp_path):
        ckpt = make_ckpt(tmp_path / "dlinear.npz")
        server, thread = start_cluster(tmp_path, {"dlinear": ckpt})
        host, port = server.server_address[:2]
        windows = [periodic_window(4, seed=i).tolist() for i in range(24)]
        outcomes = []

        def post():
            status, body, _ = _Client(host, port).request(
                "POST", "/v1/forecast", {"windows": windows})
            outcomes.append((status, body))

        posters = [threading.Thread(target=post) for _ in range(4)]
        for t in posters:
            t.start()
        time.sleep(0.05)
        # cluster-wide drain: front end finishes its in-flight proxies,
        # then workers drain their batchers before exiting
        stop_cluster(server, thread)
        for t in posters:
            t.join(timeout=30)
        assert len(outcomes) == 4
        entry = ModelRegistry().load("dlinear", ckpt)
        refs = [repr(single_forward(entry, np.asarray(w))) for w in windows]
        for status, body in outcomes:
            assert status == 200
            got = [repr(np.asarray(p)) for p in body["predictions"]]
            assert got == refs


# ----------------------------------------------------------------------
class TestAdaptiveRetryAfter:
    def test_cold_start_fallback(self, tmp_path):
        registry = ModelRegistry()
        registry.load("m", make_ckpt(tmp_path / "m.npz"))
        batcher = MicroBatcher(registry, start=False)
        assert batcher.drain_rate() == 0.0
        assert batcher.retry_after_s() == 1.0

    def test_estimate_tracks_queue_and_rate(self, tmp_path):
        registry = ModelRegistry()
        registry.load("m", make_ckpt(tmp_path / "m.npz"))
        batcher = MicroBatcher(registry, queue_size=8, start=False)
        now = time.monotonic()
        with batcher._drain_lock:
            batcher._drained.extend([(now - 1.0, 5), (now, 5)])
        for i in range(2):
            batcher.submit("m", periodic_window(4, seed=i))
        # ~10 req/s drain rate, 2 queued + the shed one => ~0.3s
        assert batcher.retry_after_s() == pytest.approx(0.3, rel=0.35)

    def test_clamped_to_bounds(self, tmp_path):
        registry = ModelRegistry()
        registry.load("m", make_ckpt(tmp_path / "m.npz"))
        batcher = MicroBatcher(registry, start=False)
        now = time.monotonic()
        with batcher._drain_lock:
            batcher._drained.extend([(now - 0.001, 10000), (now, 10000)])
        assert batcher.retry_after_s() == 0.05   # huge rate -> floor
        with batcher._drain_lock:
            batcher._drained.clear()
            batcher._drained.extend([(now - 4.0, 1), (now, 1)])
        assert batcher.retry_after_s() <= 5.0    # trickle -> ceiling

    def test_overload_sheds_cleanly_with_retry_after(self, tmp_path):
        ckpt = make_ckpt(tmp_path / "dlinear.npz")
        serving = ServingConfig(port=0, max_batch_size=2, max_wait_ms=5.0,
                                queue_size=4, default_timeout_ms=10000.0)
        server, thread = start_cluster(tmp_path, {"dlinear": ckpt},
                                       serving=serving)
        try:
            host, port = server.server_address[:2]
            window = periodic_window(5).tolist()
            outcomes = []
            lock = threading.Lock()

            def burst():
                client = _Client(host, port)
                for _ in range(6):
                    status, _, headers = client.request(
                        "POST", "/v1/forecast", {"window": window})
                    with lock:
                        outcomes.append((status, headers.get("Retry-After")))

            threads = [threading.Thread(target=burst) for _ in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)

            statuses = {status for status, _ in outcomes}
            assert statuses <= {200, 503}, \
                "overload must shed with 503s, never errors or hangs"
            assert 200 in statuses
            for status, retry_after in outcomes:
                if status == 503:
                    assert retry_after is not None
                    assert 0.05 <= float(retry_after) <= 5.0
        finally:
            stop_cluster(server, thread)


# ----------------------------------------------------------------------
class TestClusterTrace:
    def test_worker_spans_nest_under_frontend_request(self, tmp_path):
        from repro.obs import runtime as obs_runtime
        from repro.obs.events import read_events

        trace_path = str(tmp_path / "cluster.jsonl")
        obs_runtime.configure(path=trace_path)
        ckpt = make_ckpt(tmp_path / "dlinear.npz")
        server, thread = start_cluster(tmp_path, {"dlinear": ckpt},
                                       trace_path=trace_path)
        try:
            host, port = server.server_address[:2]
            status, _, headers = _Client(host, port).request(
                "POST", "/v1/forecast",
                {"window": periodic_window(6).tolist()})
            assert status == 200
            trace_id = headers["X-Trace-Id"]
        finally:
            stop_cluster(server, thread)   # workers flush their sinks
            obs_runtime.shutdown()

        recs = read_events(trace_path)
        ends = [r for r in recs if r["kind"] == "span_end"]
        frontend = [r for r in ends if r["name"] == "http.request"
                    and r["attrs"].get("tier") == "frontend"
                    and r["trace"] == trace_id]
        assert frontend, "front end must record the originating span"
        worker = [r for r in ends if r["name"] == "http.request"
                  and r["attrs"].get("tier") != "frontend"
                  and r["trace"] == trace_id]
        assert worker, "worker must continue the front end's trace"
        assert worker[0]["parent"] == frontend[0]["span"], \
            "the worker span must parent to the front-end span"
        batches = [r for r in ends if r["name"] == "batch.execute"
                   and r["trace"] == trace_id]
        assert batches, "batch.execute must land in the same trace"
        assert trace_id in batches[0]["attrs"]["member_traces"]
        assert worker[0]["span"] in batches[0]["attrs"]["member_spans"]

        starts = [r for r in recs if r["kind"] == "event"
                  and r["name"] == "worker.start"]
        assert len(starts) >= 2, "worker lifecycle events must be traced"
