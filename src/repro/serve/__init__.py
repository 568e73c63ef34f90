"""Resilient online serving for trained recommenders.

A hardened request layer over any :class:`repro.models.base.Recommender`
(IMCAT wrappers included — the method is model-agnostic, so one serving
stack covers every registered backbone):

- :class:`RecommendationService` — per-request deadlines, bounded retry
  with exponential backoff + jitter, a circuit breaker around live
  scoring, and a graceful-degradation ladder (live → stale cache →
  popularity) so requests are answered even while the model is broken;
- :class:`CheckpointModelProvider` — hot reload from a
  :mod:`repro.ckpt` directory with checksum + config-fingerprint
  validation and a post-swap canary probe that rolls a bad candidate
  back;
- health/readiness probes and ``serve.*`` perf counters for operational
  visibility;
- :class:`ShardedService` / :class:`ShardMap` — horizontal scale-out: a
  user-hash (jump-consistent) shard map over N worker replicas, each
  wrapping its own service + provider, behind a failover front door
  that preserves the never-error contract pool-wide;
- :class:`MicroBatcher` — per-worker micro-batched scoring: a lone
  request is scored at once, and requests that queue behind a running
  batch share the next matmul (at most max-batch-size of them), ranking
  exactly like the single-user call;
- :mod:`repro.serve.proc` — **process isolation**: each shard in its
  own supervised subprocess behind the same front door
  (``backend="process"`` via :func:`build_service`), with a
  :class:`Supervisor` doing heartbeats, crash/hang detection, backoff
  respawn, and a restart-budget circuit; scoring stays bit-identical
  to the thread backend;
- :mod:`repro.serve.loadgen` — a seed-deterministic Zipf traffic
  generator plus SLO-asserting load harness emitting
  ``BENCH_serve.json`` (the ``make load-smoke`` gate);
- ``python -m repro.serve`` — train-and-serve demo CLI with a ``--chaos``
  mode that injects crashes/latency and asserts degraded-but-answered
  behaviour (the ``make serve-smoke`` gate), and a pooled mode
  (``--workers N --rps R``) that drives the sharded pool under Zipf
  load and asserts SLOs.

Chaos behaviour is pinned by ``tests/serve/`` using the fault sites
``serve:score``, ``serve:reload``, and ``serve:worker[:<id>]`` from
:mod:`repro.testing`.
"""

from .batching import BatchTimeout, MicroBatcher
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, CircuitOpen
from .cache import TTLCache
from .loadgen import (
    SLO,
    EmulatedLatencyModel,
    FaultWindow,
    LoadReport,
    SLOViolation,
    ZipfTraffic,
    run_load,
    write_bench,
)
from .proc import (
    ProcWorker,
    ProcessPool,
    WorkerSpec,
    WorkerUnavailable,
    build_service,
    build_worker_service,
)
from .shard import PoolResponse, ShardMap, ShardedService, jump_hash
from .supervisor import Supervisor
from .transport import TransportClosed, TransportError, TransportTimeout
from .provider import (
    REJECTED,
    RELOADED,
    ROLLED_BACK,
    UNCHANGED,
    CheckpointModelProvider,
    ModelUnavailable,
    StaticModelProvider,
    default_restore,
)
from .service import (
    LEVEL_LIVE,
    LEVEL_POPULARITY,
    LEVEL_STALE,
    LEVELS,
    Deadline,
    DeadlineExceeded,
    RecommendationService,
    RetryPolicy,
    ServeResponse,
)

__all__ = [
    "BatchTimeout",
    "CLOSED",
    "CheckpointModelProvider",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "DeadlineExceeded",
    "EmulatedLatencyModel",
    "FaultWindow",
    "HALF_OPEN",
    "LEVELS",
    "LEVEL_LIVE",
    "LEVEL_POPULARITY",
    "LEVEL_STALE",
    "LoadReport",
    "MicroBatcher",
    "ModelUnavailable",
    "OPEN",
    "PoolResponse",
    "ProcWorker",
    "ProcessPool",
    "REJECTED",
    "RELOADED",
    "ROLLED_BACK",
    "RecommendationService",
    "RetryPolicy",
    "SLO",
    "SLOViolation",
    "ServeResponse",
    "ShardMap",
    "ShardedService",
    "StaticModelProvider",
    "Supervisor",
    "TTLCache",
    "TransportClosed",
    "TransportError",
    "TransportTimeout",
    "UNCHANGED",
    "WorkerSpec",
    "WorkerUnavailable",
    "ZipfTraffic",
    "build_service",
    "build_worker_service",
    "default_restore",
    "jump_hash",
    "run_load",
    "write_bench",
]
