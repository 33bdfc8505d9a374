"""Cluster configuration: one dataclass the CLI flags map 1:1 onto."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..server import ServingConfig


@dataclass
class ClusterConfig:
    """Tunables of the pre-fork serving cluster.

    The front end listens on ``host:port``; each of the ``workers``
    processes binds its own ephemeral port on ``host`` and runs the full
    single-process serving stack (registry + micro-batcher).  ``serving``
    carries the per-worker knobs (batch size, queue depth, deadlines) —
    identical in every worker so the determinism contract is uniform.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 8321
    # Where published weight blobs live; None = a fresh temp dir per run.
    spool_dir: Optional[str] = None
    # Warm-set width for consistent-hash routing (0 = all workers; see
    # repro.serving.cluster.routing).
    spread: int = 0
    replicas: int = 64
    # Liveness: workers heartbeat over their control pipe; the supervisor
    # declares one hung after heartbeat_timeout_s of silence and respawns
    # it (at most max_restarts times per worker slot).
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 5.0
    supervise_interval_s: float = 0.1
    max_restarts: int = 3
    # How long a drain may wait for in-flight work before workers are
    # killed outright.
    drain_timeout_s: float = 10.0
    serving: ServingConfig = field(default_factory=ServingConfig)
    expect_task: Optional[str] = None
    # JSONL trace path shared by front end and workers (O_APPEND writes
    # keep one file coherent across processes); None = tracing off.
    trace_path: Optional[str] = None
    # SLO objectives for the front end: None = off, "default" = the
    # stock availability/latency pair, else a JSON config file path
    # (see repro.obs.slo.load_objectives).
    slo: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
