"""``python -m repro.serve`` — train a small model and serve it live.

Demonstrates (and, under ``--chaos``, *asserts*) the resilience story:
a trained recommender answers a stream of top-N requests behind
deadlines, a circuit breaker, and the degradation ladder, and keeps
answering while scoring crashes and latency spikes are injected.

Examples::

    python -m repro.serve --dataset hetrec-del --scale 0.02 --epochs 2
    python -m repro.serve --dataset hetrec-del --scale 0.02 --epochs 2 \
        --requests 60 --deadline-ms 50 --chaos
    python -m repro.serve --dataset hetrec-del --scale 0.02 --epochs 2 \
        --checkpoint-dir /tmp/ckpts   # serve through validated hot reload
    python -m repro.serve --dataset hetrec-del --scale 0.02 --epochs 2 \
        --workers 4 --rps 400 --requests 240 --chaos \
        --bench-out BENCH_serve.json  # sharded pool under Zipf load
    python -m repro.serve --dataset hetrec-del --scale 0.02 --epochs 2 \
        --workers 4 --backend process --chaos  # one subprocess per shard:
        # SIGKILL + hang chaos against real processes, supervisor respawns

Exit code 0 means every request was answered with a non-empty, valid
top-N; in ``--chaos`` mode it additionally requires that degraded
responses occurred, that the breaker opened, and that it recovered to
closed by the end of the run — the ``make serve-smoke`` contract.

``--workers N`` switches to the scale-out path: N worker replicas
(each its own :class:`RecommendationService` + provider + micro-
batcher) behind a jump-hash :class:`ShardedService`, driven by the
Zipf load generator at ``--rps`` and judged against SLOs (p99 latency,
zero errors, degradation-rung budget) — the ``make load-smoke``
contract.  ``--chaos`` then arms a worker-crash window and a scoring
latency window mid-run, plus a checkpoint hot reload when
``--checkpoint-dir`` is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .. import obs, testing
from ..bench import (
    ABLATIONS,
    EXTRAS,
    METHODS,
    MODEL_BUILDERS,
    BenchSettings,
)
from ..bench.harness import prepare_split, run_recipe
from ..data import DATASET_ORDER
from ..perf import PerfReport
from ..retrieval import RetrievalTier
from .batching import MicroBatcher
from .breaker import CLOSED, CircuitBreaker, OPEN
from .loadgen import (
    SLO,
    EmulatedLatencyModel,
    FaultWindow,
    ZipfTraffic,
    run_load,
    write_bench,
)
from .proc import ProcessPool, WorkerSpec
from .provider import (
    CheckpointModelProvider,
    StaticModelProvider,
    default_restore,
)
from .service import LEVEL_LIVE, RecommendationService
from .shard import ShardedService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="train a small model and serve it resiliently",
    )
    parser.add_argument("--dataset", default="hetrec-del", choices=DATASET_ORDER)
    parser.add_argument(
        "--method", default="BPRMF",
        choices=sorted(set(METHODS) | set(ABLATIONS) | set(EXTRAS)),
    )
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--embed-dim", type=int, default=16)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--requests", type=int, default=40,
                        help="how many simulated requests to answer")
    parser.add_argument("--top-n", type=int, default=10)
    parser.add_argument("--deadline-ms", type=float, default=100.0,
                        help="per-request deadline (0 disables)")
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="train with snapshots under DIR and serve through the "
             "hot-reloading CheckpointModelProvider instead of a static "
             "in-memory model",
    )
    parser.add_argument(
        "--retrieval", action="store_true",
        help="serve the live rung through a cluster-routed candidate "
             "index (sub-linear scoring; falls back to exact on any "
             "index problem)",
    )
    parser.add_argument(
        "--n-probe", type=int, default=2, metavar="P",
        help="partitions probed per request when --retrieval is on",
    )
    parser.add_argument(
        "--partitions", type=int, default=16, metavar="K",
        help="partition count for indexes built by the retrieval tier",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="serve through a sharded pool of N worker replicas driven "
             "by the Zipf load harness (0 = classic single service)",
    )
    parser.add_argument(
        "--backend", default="thread", choices=("thread", "process"),
        help="pooled-mode worker isolation: 'thread' keeps replicas "
             "in-process; 'process' forks one supervised subprocess per "
             "shard (heartbeats, crash respawn, SIGKILL chaos)",
    )
    parser.add_argument(
        "--hot-ttl-ms", type=float, default=0.0, metavar="MS",
        help="front-door hot-key cache TTL for the Zipf head "
             "(0 disables; pooled mode only)",
    )
    parser.add_argument(
        "--rps", type=float, default=200.0,
        help="target request rate for the pooled load run",
    )
    parser.add_argument(
        "--skew", type=float, default=1.1,
        help="Zipf exponent of the simulated user popularity",
    )
    parser.add_argument(
        "--load-concurrency", type=int, default=8, metavar="C",
        help="client threads driving the pooled load run",
    )
    parser.add_argument(
        "--service-time-ms", type=float, default=1.0,
        help="emulated per-scoring-call backend time in the pooled run "
             "(released-GIL sleep; batching amortises it per batch; "
             "0 disables)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=8,
        help="micro-batcher flush size per worker (pooled mode)",
    )
    parser.add_argument(
        "--slo-p99-ms", type=float, default=500.0,
        help="p99 latency SLO asserted on the pooled load run",
    )
    parser.add_argument(
        "--bench-out", default=None, metavar="FILE",
        help="append/write this run's operating point to FILE as "
             "BENCH_serve.json",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="inject scoring crashes and latency mid-run and assert "
             "degraded-but-answered behaviour (non-zero exit otherwise)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="enable tracing (repro.obs) and export per-request spans "
             "to FILE as JSONL",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="export serving metrics to FILE (Prometheus text format; "
             ".json/.jsonl extensions switch to a JSONL snapshot)",
    )
    return parser


def _proc_chaos(total: int, workers: int, with_reload: bool):
    """The process-pool chaos schedule: SIGKILL one shard, hang
    another without exiting, and (with hot reload) swap checkpoints —
    all against real subprocesses, mid-run."""
    windows = [
        FaultWindow(start=max(int(total * 0.20), 1),
                    stop=max(int(total * 0.35), 2),
                    kind="proc-kill", worker=0),
        FaultWindow(start=max(int(total * 0.50), 3),
                    stop=max(int(total * 0.65), 4),
                    kind="proc-hang", worker=1 % workers, seconds=0.5),
    ]
    if with_reload:
        at = max(int(total * 0.85), 5)
        windows.append(FaultWindow(start=at, stop=at + 1, kind="reload"))
    return windows


def _pool_chaos(total: int, deadline: Optional[float], with_reload: bool):
    """The pooled chaos schedule: crash one shard, slow all scoring,
    and (when hot reload is in play) swap checkpoints mid-run."""
    slow = 2 * deadline if deadline else 0.05
    # The slow window is kept short: while it is armed every scoring
    # call busts the deadline, breakers open, and the stale rung soaks
    # the traffic — a longer window (plus breaker recovery) would eat
    # the live-fraction budget without testing anything new.
    windows = [
        FaultWindow(start=max(int(total * 0.20), 1),
                    stop=max(int(total * 0.35), 2),
                    kind="worker-crash", worker=0),
        FaultWindow(start=max(int(total * 0.50), 3),
                    stop=max(int(total * 0.58), 4),
                    kind="score-slow", seconds=slow),
    ]
    if with_reload:
        at = max(int(total * 0.80), 5)
        windows.append(FaultWindow(start=at, stop=at + 1, kind="reload"))
    return windows


def _run_pool(args, dataset, split, cell, deadline, retrieval_params) -> int:
    """The scale-out path: N workers + shard map + Zipf load + SLOs."""
    service_time = max(args.service_time_ms, 0.0) / 1000.0
    hot_reload = (
        args.checkpoint_dir is not None and args.method in MODEL_BUILDERS
    )
    popularity = split.train.item_degrees()

    def build_worker(wid: int) -> RecommendationService:
        if hot_reload:
            builder = MODEL_BUILDERS[args.method]
            provider = CheckpointModelProvider(
                args.checkpoint_dir,
                builder=lambda: builder(
                    dataset, split, args.embed_dim, np.random.default_rng(0)
                ),
                restore=default_restore,
                retrieval=args.retrieval,
                retrieval_params=retrieval_params,
            )
        else:
            model = cell.trained.model
            if service_time > 0:
                model = EmulatedLatencyModel(model, service_time)
            provider = StaticModelProvider(model, version=f"static-w{wid}")
        batcher = None
        if args.max_batch > 1:
            batcher = MicroBatcher(provider.model, max_batch=args.max_batch)
        tier = None
        if args.retrieval and not hot_reload:
            tier = RetrievalTier(n_probe=args.n_probe, **retrieval_params)
        return RecommendationService(
            provider,
            popularity=popularity,
            default_top_n=args.top_n,
            default_deadline=deadline,
            breaker=CircuitBreaker(failure_threshold=3, recovery_time=0.1),
            batcher=batcher,
            retrieval=tier,
        )

    hot_ttl = max(args.hot_ttl_ms, 0.0) / 1000.0
    if args.backend == "process":
        if hot_reload:
            builder_fn = MODEL_BUILDERS[args.method]
            model_builder = lambda: builder_fn(  # noqa: E731 — forked, not pickled
                dataset, split, args.embed_dim, np.random.default_rng(0)
            )
        else:
            trained = cell.trained.model
            if service_time > 0:
                trained = EmulatedLatencyModel(trained, service_time)
            model_builder = lambda: trained  # noqa: E731
        spec = WorkerSpec(
            builder=model_builder,
            checkpoint_dir=args.checkpoint_dir if hot_reload else None,
            popularity=popularity,
            default_top_n=args.top_n,
            default_deadline=deadline,
            breaker_recovery=0.1,
        )
        pool = ProcessPool(
            spec, args.workers,
            popularity=popularity,
            hot_ttl=hot_ttl,
            down_cooldown=0.2,
            # Reroute hung-shard requests well inside the p99 SLO
            # instead of waiting out the stall on the primary.
            request_timeout=0.3,
            heartbeat_timeout=0.3,
        )
        print(f"process pool up: {args.workers} supervised workers "
              f"(pids {[w.pid for w in pool.workers]})")
    else:
        workers = [build_worker(wid) for wid in range(args.workers)]
        pool = ShardedService(
            workers, popularity=popularity, down_cooldown=0.2,
            hot_ttl=hot_ttl,
        )
    if hot_reload:
        outcomes = pool.poll_reload()
        print(f"hot-reload bootstrap: {outcomes}")

    train_items = split.train.items_of_user()
    traffic = ZipfTraffic(
        dataset.num_users, args.requests,
        rps=args.rps, skew=args.skew, seed=args.seed,
    )
    if not args.chaos:
        faults = ()
    elif args.backend == "process":
        faults = _proc_chaos(args.requests, args.workers, hot_reload)
    else:
        faults = _pool_chaos(args.requests, deadline, hot_reload)
    print(
        f"\ndriving {args.requests} Zipf requests at {args.rps:.0f} rps "
        f"over {args.workers} {args.backend} workers "
        f"({'chaos armed' if args.chaos else 'healthy run'})..."
    )
    report = run_load(
        pool, traffic,
        concurrency=args.load_concurrency,
        pace=True,
        faults=faults,
        top_n=args.top_n,
        deadline=deadline,
        exclude_fn=lambda user: train_items[user],
    )
    stats = report.summary()
    print(json.dumps(stats, indent=2, sort_keys=True))
    health = pool.health()
    print("pool health:", health["status"])
    if args.backend == "process":
        for slot in health.get("supervisor", ()):
            print(f"  worker {slot['worker']}: alive={slot['alive']} "
                  f"restarts={slot['restarts']} disabled={slot['disabled']}")
        pool.close()

    slo = SLO(
        p99_seconds=args.slo_p99_ms / 1000.0,
        max_errors=0,
        min_live_fraction=0.5,
        max_popularity_fraction=0.35,
    )
    violations = report.violations(slo)
    if args.chaos:
        shaken = stats["rerouted"] > 0 or any(
            stats["responses_by_level"].get(level, 0)
            for level in ("stale", "popularity")
        )
        if not shaken:
            violations.append(
                "chaos schedule left no trace (no reroutes, no degraded "
                "responses) — the fault windows never bit"
            )
    if args.bench_out:
        suffix = "-proc" if args.backend == "process" else ""
        point = {"label": f"workers-{args.workers}{suffix}", **stats}
        existing = []
        if os.path.exists(args.bench_out):
            with open(args.bench_out, "r", encoding="utf-8") as handle:
                existing = json.load(handle).get("operating_points", [])
        existing = [
            p for p in existing if p.get("label") != point["label"]
        ] + [point]
        write_bench(
            args.bench_out, existing,
            meta={"dataset": dataset.name, "method": args.method,
                  "chaos": bool(args.chaos), "rps": args.rps,
                  "skew": args.skew, "seed": args.seed},
        )
        print(f"bench: {args.bench_out}")
    if violations:
        for violation in violations:
            print(f"SLO FAIL: {violation}", file=sys.stderr)
        return 1
    print("\nOK: pool held its SLOs under load")
    return 0


def _chaos_plan(total: int):
    """Split the request stream into healthy/crash/latency/healthy
    windows; returns (crash_window, latency_window) index ranges."""
    quarter = max(total // 4, 1)
    return range(quarter, 2 * quarter), range(2 * quarter, 3 * quarter)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.requests < 1:
        print("--requests must be >= 1", file=sys.stderr)
        return 2
    deadline = args.deadline_ms / 1000.0 if args.deadline_ms > 0 else None
    if args.trace_out is not None:
        obs.enable_tracing()

    settings = BenchSettings(
        scale=args.scale,
        embed_dim=args.embed_dim,
        epochs=args.epochs,
        batch_size=args.batch_size,
        train_seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
    )
    recipe = (
        METHODS.get(args.method)
        or ABLATIONS.get(args.method)
        or EXTRAS.get(args.method)
    )
    dataset, split = prepare_split(args.dataset, settings)
    print(f"training {args.method} on {dataset.name} (scale {args.scale})...")
    cell = run_recipe(
        recipe, dataset, split, args.method, settings, keep_model=True
    )
    print(f"trained: R@20={100 * cell.recall:.2f}% in {cell.wall_time:.1f}s")

    retrieval_params = dict(
        num_partitions=args.partitions,
        popularity=split.train.item_degrees(),
        seed=args.seed,
    )
    if args.workers > 0:
        return _run_pool(args, dataset, split, cell, deadline,
                         retrieval_params)
    if args.checkpoint_dir is not None and args.method in MODEL_BUILDERS:
        builder = MODEL_BUILDERS[args.method]
        provider = CheckpointModelProvider(
            args.checkpoint_dir,
            builder=lambda: builder(
                dataset, split, args.embed_dim, np.random.default_rng(0)
            ),
            restore=default_restore,
            retrieval=args.retrieval,
            retrieval_params=retrieval_params,
        )
    else:
        if args.checkpoint_dir is not None:
            print(
                f"note: {args.method} has no plain builder; serving the "
                f"in-memory model instead of hot-reloading snapshots"
            )
        provider = cell.trained.model

    tier = None
    if args.retrieval:
        tier = RetrievalTier(n_probe=args.n_probe, **retrieval_params)
        print(
            f"retrieval tier armed: n_probe={args.n_probe} over "
            f"{args.partitions} partitions"
        )

    # A short recovery time so the half-open probe fires within the run.
    service = RecommendationService(
        provider,
        popularity=split.train.item_degrees(),
        default_top_n=args.top_n,
        default_deadline=deadline,
        breaker=CircuitBreaker(failure_threshold=3, recovery_time=0.2),
        reload_every=0 if args.checkpoint_dir is None else 10,
        retrieval=tier,
    )
    if args.checkpoint_dir is not None and args.method in MODEL_BUILDERS:
        outcome = service.poll_reload()
        print(f"hot-reload bootstrap: {outcome} "
              f"(serving {service.provider.version()})")

    train_items = split.train.items_of_user()
    rng = np.random.default_rng(args.seed)
    users = rng.integers(0, dataset.num_users, size=args.requests)

    crash_window, latency_window = _chaos_plan(args.requests)
    breaker_opened = False
    empty_answers = 0
    failures = 0
    print(f"\nserving {args.requests} requests "
          f"({'chaos armed' if args.chaos else 'healthy run'})...")
    for index, user in enumerate(users):
        user = int(user)
        exclude = set(train_items[user].tolist())
        if args.chaos and index == latency_window.stop:
            # Give the breaker its recovery window so the final healthy
            # stretch exercises half-open -> closed.
            time.sleep(0.25)
        try:
            if args.chaos and index in crash_window:
                with testing.CrashPoint(testing.SERVE_SCORE, at=1, every=1):
                    response = service.recommend(user, exclude=exclude)
            elif args.chaos and index in latency_window and deadline:
                with testing.Latency(testing.SERVE_SCORE, seconds=2 * deadline):
                    response = service.recommend(user, exclude=exclude)
            else:
                response = service.recommend(user, exclude=exclude)
        except Exception as err:  # the service promises this never happens
            failures += 1
            print(f"  request {index}: UNHANDLED {type(err).__name__}: {err}")
            continue
        if response.items.size == 0:
            empty_answers += 1
        if response.breaker_state == OPEN:
            breaker_opened = True
        if args.chaos or index < 3 or response.degraded:
            print(
                f"  request {index:3d}: user {user:4d} "
                f"level={response.level:<10} items={response.items.size} "
                f"breaker={response.breaker_state} "
                f"latency={1000 * response.latency:.1f}ms"
            )

    health = service.health()
    print("\nhealth:", {k: v for k, v in health.items() if k != "counters"})
    print(PerfReport.from_registries(service.timers, service.counters)
          .format(title="serving perf"))

    if args.trace_out is not None:
        obs.get_tracer().export_jsonl(args.trace_out)
        print(f"trace: {args.trace_out}")
    if args.metrics_out is not None:
        registry = obs.get_metrics()
        if args.metrics_out.endswith((".json", ".jsonl")):
            obs.write_metrics_jsonl(registry, args.metrics_out)
        else:
            obs.write_metrics(registry, args.metrics_out)
        print(f"metrics: {args.metrics_out}")

    ok = failures == 0 and empty_answers == 0
    if args.retrieval:
        served = health["counters"].get("serve.retrieval.served", 0)
        if not served:
            print("RETRIEVAL FAIL: tier never answered a request",
                  file=sys.stderr)
        ok = ok and bool(served)
    if args.chaos:
        counts = health["counters"]
        degraded = counts.get("serve.degraded", 0)
        recovered = health["breaker"] == CLOSED and counts.get(
            f"serve.responses.{LEVEL_LIVE}", 0
        ) > 0
        if not degraded:
            print("CHAOS FAIL: no degraded responses recorded", file=sys.stderr)
        if not breaker_opened:
            print("CHAOS FAIL: breaker never opened", file=sys.stderr)
        if not recovered:
            print("CHAOS FAIL: breaker did not recover to closed/live",
                  file=sys.stderr)
        ok = ok and bool(degraded) and breaker_opened and recovered
    if not ok:
        print(f"\nFAIL: failures={failures} empty={empty_answers}",
              file=sys.stderr)
        return 1
    print("\nOK: every request answered with a valid top-N")
    return 0


if __name__ == "__main__":
    sys.exit(main())
