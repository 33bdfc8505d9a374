"""Shared fixtures for the test suite."""

import os
import socket

import numpy as np
import pytest

from repro.obs import runtime as obs_runtime
from repro.utils import set_seed


@pytest.fixture(autouse=True)
def _seed_everything():
    """Make weight init / dropout / shuffling deterministic per test."""
    set_seed(1234)
    yield


@pytest.fixture(scope="session", autouse=True)
def _session_trace():
    """Trace the whole test session when REPRO_TRACE is set.

    CI exports ``REPRO_TRACE=artifacts/pytest-trace.jsonl`` so a failing
    run uploads the spans every instrumented layer emitted on the way to
    the failure (see .github/workflows/ci.yml).
    """
    path = os.environ.get("REPRO_TRACE")
    if not path:
        yield None
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    observer = obs_runtime.configure(path=path)
    yield observer
    obs_runtime.shutdown()


@pytest.fixture(autouse=True)
def _restore_observer():
    """Undo observer churn a test leaves behind.

    Tests that call ``obs.configure``/``shutdown`` (or CLI paths that do)
    replace the process-global slot; restore whatever was installed before
    the test so the session-level trace observer — or the default
    disabled state — survives.
    """
    before = obs_runtime.active()
    yield
    after = obs_runtime.active()
    if after is not before:
        if after is not None:
            after.close()
        obs_runtime.swap(before)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_series(rng):
    """A (B, T, C) batch with planted periodicity for decomposition tests."""
    t = np.arange(48)
    base = (np.sin(2 * np.pi * t / 12)[None, :, None]
            + 0.4 * np.sin(2 * np.pi * t / 24)[None, :, None]
            + 0.02 * t[None, :, None])
    return base + 0.05 * rng.standard_normal((2, 48, 3))


@pytest.fixture
def raw_http():
    """Send raw request bytes to a server address and read until the
    server closes the connection; returns ``(status, body bytes)``."""
    def send(address, request: bytes):
        with socket.create_connection(address[:2], timeout=30) as sock:
            sock.sendall(request)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), body
    return send
