"""The four benchmark workloads: ``train``, ``rank``, ``serve-zipf`` and
``serve-uniform``.

Every workload runs L-IMCAT (IMCAT with ``IMCATConfig`` defaults over a
LightGCN backbone, d=64) on the ``hetrec-del`` preset at scale 1.0
(1,274 users, 5,169 items), generated from the run's seed.  Only public
``repro`` APIs are called.  A workload goes through three parts:

1. *fixture* (``rank`` and the serve workloads only): one short fit that
   makes the trained model the workload reads.  It is an input, like the
   dataset, and is neither timed nor traced; training speed is what the
   ``train`` workload measures.
2. *set-up*, repeated :data:`SETUP_REPEATS` times; ``setup_s`` is the
   median.  It is every program call before the first timed operation:
   data generation and split, and building the trainer, the evaluator
   and index, or the serving pool (warm-up requests included).
3. the *measured* phase, then the output checks (untimed, untraced).

Each workload returns the same end-to-end metric names; what they
measure on each workload is listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import shutil
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import measure
import openloop
import tracing

DATASET = "hetrec-del"
SCALE = 1.0
EMBED_DIM = 64
TOP_N = 20
SETUP_REPEATS = 3
#: OpenBLAS threads in every workload, set before the program runs (forked
#: serving workers inherit it).  With the library default, one thread per
#: core, BLAS threads compete with the Python threads and worker processes
#: for the cores: the five-seed spread of serve-zipf's throughput and
#: median latency reached 0.5, and train ran 28% slower (README).
BLAS_THREADS = 1

#: ``train``: batch 1024 for one epoch past IMCATConfig's 5 pretraining
#: epochs, so the clustering phase (KL loss, cluster refreshes) runs.
TRAIN_EPOCHS = 6
TRAIN_BATCH = 1024

#: The fixture fit: same schedule, large batches and a larger step so it
#: reaches the clustering phase in a few seconds.  Snapshots at epochs 3
#: and 6 give serve-zipf two model versions to hot-reload between.
FIXTURE_EPOCHS = 6
FIXTURE_BATCH = 8192
FIXTURE_LR = 2e-2
FIXTURE_CKPT_EVERY = 3

#: ``rank``: partitions probed per user by the approximate pass.  The
#: smallest value reaching top-50 overlap >= 0.95 on seed 0 when the
#: benchmark was defined (n_probe=2 gave 0.946, 3 gave 0.994, of the 4
#: intent partitions).  Frozen: a later change must not retune it.
N_PROBE = 3
#: ``rank`` ranks one fixed dataset and model, the seed-0 ones n_probe was
#: frozen on; ``--seed`` picks the users its checks sample.  The learned
#: intent partitions vary so much between seeds (share of the catalogue
#: scored at n_probe=3: 0.52-1.0 over seeds 200-209) that the pass cost,
#: and the memory it allocates, would measure the seed, not the code.
RANK_DATA_SEED = 0
#: Each ``rank`` round repeats the exact pass (about 0.1 s) for at least
#: this long before its approximate pass (several seconds), so the exact
#: rate is a median of many passes rather than one short sample.
EXACT_ROUND_S = 1.0
OVERLAP_K = 50
OVERLAP_USERS = 128
REFERENCE_USERS = 96

#: Serving: latency limit on the tail percentile, the reference rate the
#: latencies are reported at (below capacity on a 2-core host), and the
#: rate ladder behind ``max_rps`` (the reference rate is its first rung).
LIMIT_S = 0.100
BACKLOG_SLACK_S = 0.020
REF_RATE = 20.0
RUNG_SECONDS = 1.5
LADDER = (20.0, 40.0, 80.0)
#: The reference phase and the closed-loop saturation phase alternate in
#: ROUNDS slices (a reference slice, then a BURST_S burst), so each figure
#: samples the whole measured span instead of one stretch of a host whose
#: speed drifts over seconds.  The latencies pool every reference slice;
#: the throughput is the median of the bursts.  The bursts draw their
#: users from a sequence of SATURATION_USERS requests of their own, uniform
#: on both serve workloads: under Zipf traffic the hot-key hit share rises
#: with the closed loop's own rate, which doubled the run-to-run spread of
#: serve-zipf's throughput (README).
ROUNDS = 6
BURST_S = 1.5
SATURATION_USERS = 4096
SKEW = {"serve-zipf": 1.1, "serve-uniform": 0.0}
HOT_TTL = 0.5
MAX_BATCH = 8
BATCH_WAIT = 0.002
OFFLINE_CHECK_EVERY = 10
SERVED_KEYS = ("model", "model_extra", "fingerprint")
#: serve-zipf's worker processes.  One, not nproc: with two forked workers
#: on a 2-core host the saturation bursts of one run spread several times
#: wider (README).
PROCESS_WORKERS = 1
#: serve-zipf's reload window: requests at the reference rate for this
#: long, with the snapshot write and ``poll_reload`` starting after
#: RELOAD_AFTER_S (the reload itself takes about half a second, and
#: requests must still be sent once it and the cache TTL are over).
#: Reported as its own phase, outside the latencies.
RELOAD_WINDOW_S = 4.0
RELOAD_AFTER_S = 0.5

#: Span name -> per-layer metric its self time is charged to.
LAYER_OF = {
    "generate_preset": "data.generate_s",
    "split_dataset": "data.generate_s",
    "BPRSampler.epoch": "data.sample_s",
    "TripletCycler.next": "data.sample_s",
    "IndexCycler.next": "data.sample_s",
    "IMCAT.ui_loss": "core.loss_bpr_s",
    "IMCAT.vt_loss": "core.loss_tag_s",
    "IMCAT.alignment_loss": "core.loss_align_s",
    "IMCAT.kl_loss": "core.loss_kl_s",
    "IMCAT.intent_independence_loss": "core.loss_indep_s",
    "IMCAT.refresh_clusters": "core.cluster_refresh_s",
    "IMCAT.activate_clustering": "core.cluster_refresh_s",
    "Tensor.backward": "nn.backward_s",
    "Adam.zero_grad": "nn.optim_s",
    "Adam.step": "nn.optim_s",
    "LightGCN.propagate": "models.propagate_s",
    "LightGCN.all_scores": "models.all_scores_s",
    "Evaluator.evaluate": "eval.evaluate_s",
    "rank_items": "eval.topk_s",
    "build_index": "retrieval.build_index_s",
    "ClusterIndex.candidate_lists": "retrieval.candidates_s",
    "ApproximateScorer.all_scores": "retrieval.approx_scores_s",
    "CheckpointManager.save": "ckpt.save_s",
    "ShardedService.recommend": "serve.frontdoor_s",
    "ProcWorker.recommend": "serve.worker_rtt_s",
    "RecommendationService.recommend": "serve.service_s",
    "MicroBatcher.recommend": "serve.batch_wait_s",
    "ProcessPool.poll_reload": "serve.reload_s",
    "build_service": "serve.pool_start_s",
    "bench.idle": "bench.idle_s",
}

#: Relative tolerance within which the traced run's layer self times
#: plus ``other`` must add up to the traced total.
SELF_TIME_TOLERANCE = 1e-3


class Context:
    """One run: seed, budget, tracing state and scratch directory."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.nproc = len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else (os.cpu_count() or 1)
        self.recorder = tracing.SpanRecorder()
        scratch = os.path.join(root, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
        self.failures: List[str] = []
        self.extra: Dict[str, Any] = {}
        self.child_pids: List[int] = []
        self.untimed_s = 0.0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def span(self, name: str):
        return self.recorder.span(name)

    @contextlib.contextmanager
    def untimed(self):
        """Exclude the body from the set-up time being measured."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - start

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# tracing: which public functions the traced run wraps
# ----------------------------------------------------------------------
def install_wrappers(recorder: tracing.SpanRecorder) -> None:
    """Wrap every public boundary in :data:`LAYER_OF` (traced run only)."""
    import repro.data as rdata
    import repro.eval.metrics as metrics
    import repro.retrieval as retrieval
    import repro.serve as serve
    import repro.serve.batching as batching
    from repro.ckpt import CheckpointManager
    from repro.core import IMCAT
    from repro.data.sampling import BPRSampler, IndexCycler, TripletCycler
    from repro.eval import Evaluator
    from repro.models import LightGCN
    from repro.nn import Adam, Tensor
    from repro.retrieval import ApproximateScorer, ClusterIndex
    from repro.serve import (MicroBatcher, ProcessPool, ProcWorker,
                             RecommendationService, ShardedService)

    wrap = recorder.wrap
    wrap(rdata, "generate_preset", "generate_preset")
    wrap(rdata, "split_dataset", "split_dataset")
    recorder.wrap_iterator(BPRSampler, "epoch", "BPRSampler.epoch")
    wrap(TripletCycler, "__next__", "TripletCycler.next")
    wrap(IndexCycler, "__next__", "IndexCycler.next")
    for name in ("ui_loss", "vt_loss", "alignment_loss", "kl_loss",
                 "intent_independence_loss", "refresh_clusters",
                 "activate_clustering"):
        wrap(IMCAT, name, f"IMCAT.{name}")
    wrap(Tensor, "backward", "Tensor.backward")
    wrap(Adam, "zero_grad", "Adam.zero_grad")
    wrap(Adam, "step", "Adam.step")
    wrap(LightGCN, "propagate", "LightGCN.propagate")
    wrap(LightGCN, "all_scores", "LightGCN.all_scores",
         value=lambda args, kwargs, out: len(out))
    wrap(Evaluator, "evaluate", "Evaluator.evaluate",
         value=lambda args, kwargs, out: float(bool(kwargs.get("approximate"))))
    # Callers look rank_items up in these two modules at call time.
    wrap(metrics, "rank_items", "rank_items")
    wrap(batching, "rank_items", "rank_items")
    wrap(retrieval, "build_index", "build_index")
    wrap(ClusterIndex, "candidate_lists", "ClusterIndex.candidate_lists")
    wrap(ApproximateScorer, "all_scores", "ApproximateScorer.all_scores",
         value=lambda args, kwargs, out: np.isfinite(out).sum() / max(len(out), 1))
    wrap(CheckpointManager, "save", "CheckpointManager.save",
         value=lambda args, kwargs, out: float(os.path.getsize(out)))
    wrap(ShardedService, "recommend", "ShardedService.recommend")
    wrap(ProcWorker, "recommend", "ProcWorker.recommend",
         value=lambda args, kwargs, out: float(out.latency))
    wrap(RecommendationService, "recommend", "RecommendationService.recommend")
    wrap(MicroBatcher, "recommend", "MicroBatcher.recommend")
    wrap(ProcessPool, "poll_reload", "ProcessPool.poll_reload")
    wrap(serve, "build_service", "build_service")

    def in_child() -> None:
        # Forked serving workers are measured from the parent (round
        # trip and their reported latency); they record nothing.
        recorder.enabled = False
        recorder.restore()

    os.register_at_fork(after_in_child=in_child)


# ----------------------------------------------------------------------
# shared building blocks
# ----------------------------------------------------------------------
def make_data(seed: int):
    import repro.data as rdata

    dataset = rdata.generate_preset(DATASET, scale=SCALE, seed=seed)
    return dataset, rdata.split_dataset(dataset, seed=seed)


def make_model(dataset, split, seed: int):
    from repro.core import IMCAT, IMCATConfig
    from repro.models import LightGCN

    backbone = LightGCN(
        dataset.num_users, dataset.num_items,
        (split.train.user_ids, split.train.item_ids),
        embed_dim=EMBED_DIM, rng=np.random.default_rng(seed),
    )
    return IMCAT(backbone, dataset, split.train, IMCATConfig(),
                 rng=np.random.default_rng(seed))


def fit_fixture(ctx: Context, dataset, split, seed: int,
                checkpoint_dir: Optional[str] = None):
    """The trained model a rank or serve workload reads."""
    from repro.core import IMCATTrainConfig, IMCATTrainer

    model = make_model(dataset, split, seed)
    start = time.perf_counter()
    result = IMCATTrainer(model, split, IMCATTrainConfig(
        epochs=FIXTURE_EPOCHS, batch_size=FIXTURE_BATCH,
        learning_rate=FIXTURE_LR, eval_every=FIXTURE_EPOCHS, seed=seed,
        checkpoint_dir=checkpoint_dir, checkpoint_every=FIXTURE_CKPT_EVERY,
    )).fit()
    ctx.extra["fixture_fit_s"] = time.perf_counter() - start
    ctx.extra["fixture_recall20"] = result.best_metric
    ctx.check(model.clustering_active, "fixture fit never reached clustering")
    return model


def repeat_setup(ctx: Context, build: Callable[[bool], Any]) -> Any:
    """Run ``build(last)`` :data:`SETUP_REPEATS` times; the last result is
    kept (and traced), earlier ones are discarded by ``build`` itself.
    The fixture fit, made once inside the first repetition from its data,
    runs under :meth:`Context.untimed`."""
    times = []
    result = None
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        ctx.recorder.enabled = ctx.trace and last
        ctx.untimed_s = 0.0
        start = time.perf_counter()
        with ctx.span("bench.setup"):
            result = build(last)
        times.append(time.perf_counter() - start - ctx.untimed_s)
    ctx.extra["setup_runs_s"] = times
    ctx.extra["setup_s"] = measure.median(times)
    return result


def traffic(num_users: int, count: int, skew: float, seed: int) -> np.ndarray:
    """Request users: Zipf(``skew``) over a seeded user order, uniform at 0."""
    rng = np.random.default_rng([seed, 7])
    if skew <= 0:
        return rng.integers(num_users, size=count)
    weights = np.arange(1, num_users + 1, dtype=np.float64) ** -skew
    order = rng.permutation(num_users)
    return order[rng.choice(num_users, size=count, p=weights / weights.sum())]


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def run_train(ctx: Context) -> Dict[str, Any]:
    from repro.core import IMCATTrainConfig, IMCATTrainer
    from repro.perf import StopwatchRegistry

    class SampleRegistry(StopwatchRegistry):
        """The trainer's own phase timer, also keeping every sample."""

        def __init__(self) -> None:
            super().__init__()
            self.samples: Dict[str, List[float]] = {}

        def record(self, path: str, seconds: float) -> None:
            super().record(path, seconds)
            self.samples.setdefault(path, []).append(seconds)

    def build(last: bool):
        dataset, split = make_data(ctx.seed)
        model = make_model(dataset, split, ctx.seed)
        ckpt_dir = tempfile.mkdtemp(prefix="train-ckpt-", dir=ctx.tmp)
        timer = SampleRegistry()
        trainer = IMCATTrainer(model, split, IMCATTrainConfig(
            epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH, seed=ctx.seed,
            checkpoint_dir=ckpt_dir, checkpoint_every=1,
        ), perf=timer)
        return trainer, timer, ckpt_dir

    trainer, timer, ckpt_dir = repeat_setup(ctx, build)
    ctx.recorder.enabled = ctx.trace
    start = time.perf_counter()
    with ctx.span("bench.measure"):
        result = trainer.fit()
    wall = time.perf_counter() - start
    ctx.recorder.enabled = False

    triplets = result.perf.counters.get("triplets", 0)
    # One optimizer step: the trainer's "forward" (Eq. 18 loss) plus its
    # "backward" (zero_grad, backward, Adam step).  Batch sampling (~1%)
    # is left out: its timer also counts each epoch's final empty fetch.
    steps = [
        forward + backward for forward, backward in zip(
            timer.samples.get("forward", []), timer.samples.get("backward", []))
    ]
    losses = [record["loss"] for record in result.history]
    ctx.check(len(result.history) == TRAIN_EPOCHS,
              f"ran {len(result.history)} of {TRAIN_EPOCHS} epochs")
    ctx.check(all(math.isfinite(x) for x in losses), f"non-finite loss {losses}")
    recall = float(result.history[-1].get("recall@20", math.nan))
    ctx.check(math.isfinite(recall) and recall > 0, f"recall@20 {recall}")
    ctx.check(triplets > 0 and len(steps) > 0, "no training steps recorded")
    saved = [name for name in os.listdir(ckpt_dir) if name.endswith(".npz")]
    ctx.check(len(saved) > 0, "no checkpoint written")
    latency = measure.summarize([_ms(s) for s in steps])
    ctx.extra.update(
        triplets=triplets, fit_s=wall, epochs=len(result.history),
        step_latency=latency, losses=losses,
    )
    return {
        "attempted": len(steps),
        "failed": 0,
        "throughput_per_s": triplets / wall,
        "latency": latency,
        "quality": recall,
    }


# ----------------------------------------------------------------------
# rank
# ----------------------------------------------------------------------
def run_rank(ctx: Context) -> Dict[str, Any]:
    import repro.retrieval as retrieval
    from repro.eval import Evaluator

    fixture: Dict[str, Any] = {}

    def build(last: bool):
        dataset, split = make_data(RANK_DATA_SEED)
        if not fixture:
            with ctx.untimed():
                fixture["model"] = fit_fixture(ctx, dataset, split, RANK_DATA_SEED)
        model = fixture["model"]
        evaluator = Evaluator(split.train, split.test, top_n=(TOP_N,),
                              metrics=("recall", "ndcg"))
        index = retrieval.build_index(
            model, popularity=split.train.item_degrees(), seed=RANK_DATA_SEED)
        return split, evaluator, index

    split, evaluator, index = repeat_setup(ctx, build)
    model = fixture["model"]
    users = len(evaluator.eval_users)
    exact_times: List[float] = []
    approx_times: List[float] = []
    round_times: List[float] = []
    exact = None
    ctx.recorder.enabled = ctx.trace
    with ctx.span("bench.measure"):
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            while time.perf_counter() - start < EXACT_ROUND_S:
                before = time.perf_counter()
                exact = evaluator.evaluate(model)
                exact_times.append(time.perf_counter() - before)
            mid = time.perf_counter()
            evaluator.evaluate(model, approximate=True, index=index,
                               n_probe=N_PROBE)
            end = time.perf_counter()
            approx_times.append(end - mid)
            round_times.append(end - start)
            # Start another round only if it fits in the budget.
            if end - begin + (end - start) > ctx.seconds:
                break
    ctx.recorder.enabled = False

    # Output checks: the vectorized exact pass against the per-user
    # reference path on a sampled subset (the two sum in different
    # orders, hence the 1e-12 tolerance).
    rng = np.random.default_rng([ctx.seed, 11])
    sample = np.sort(rng.choice(evaluator.eval_users,
                                size=min(REFERENCE_USERS, users), replace=False))
    reference = Evaluator(split.train, split.test, top_n=(TOP_N,),
                          metrics=("recall", "ndcg"), user_subset=sample
                          ).evaluate_reference(model)
    position = np.searchsorted(exact.user_ids, reference.user_ids)
    for key, values in reference.per_user.items():
        got = exact.per_user[key][position]
        ctx.check(np.allclose(got, values, rtol=0.0, atol=1e-12),
                  f"exact {key} differs from evaluate_reference")
    overlap_users = np.sort(rng.choice(
        evaluator.eval_users, size=min(OVERLAP_USERS, users), replace=False))
    overlap = retrieval.ranking_overlap(
        model, retrieval.ApproximateScorer(model, index, n_probe=N_PROBE),
        overlap_users, mask_items=split.train.items_of_user(), top_k=OVERLAP_K)
    ctx.check(0.0 < overlap <= 1.0, f"overlap {overlap}")

    exact_s = measure.median(exact_times)
    approx_s = measure.median(approx_times)
    ctx.extra.update(
        eval_users=users, rounds=len(round_times), exact_passes=len(exact_times),
        num_items=model.num_items,
        exact_pass_s=exact_times, approx_pass_s=approx_times,
        exact_users_per_s=users / exact_s,
        approx_users_per_s=users / approx_s,
        approx_overlap50=overlap, n_probe=N_PROBE,
        exact_recall20=exact["recall@20"],
    )
    return {
        "attempted": users * (len(exact_times) + len(approx_times)),
        "failed": 0,
        # Geometric mean of the two passes' rates (each from its median
        # pass), so a given speed-up of either pass moves it by the same
        # factor (the approximate pass takes most of the time and would
        # hide the exact one otherwise).
        "throughput_per_s": math.sqrt(
            ctx.extra["exact_users_per_s"] * ctx.extra["approx_users_per_s"]),
        # Per pass, as the geometric mean of the median exact and
        # approximate pass times (the counterpart of the throughput above).
        "latency": {"n": len(round_times), "p50": _ms(math.sqrt(exact_s * approx_s)),
                    "tail_pct": 100.0, "tail": _ms(max(round_times))},
        "quality": overlap,
    }


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def run_serve(ctx: Context) -> Dict[str, Any]:
    from repro.ckpt import CheckpointManager, read_checkpoint
    from repro.obs import MetricsRegistry
    from repro.serve import (CircuitBreaker, MicroBatcher, RecommendationService,
                             ShardedService, StaticModelProvider, WorkerSpec,
                             build_service)

    zipf = ctx.workload == "serve-zipf"
    fixture: Dict[str, Any] = {}

    def make_fixture(dataset, split) -> None:
        """The trained model and, for serve-zipf, its two snapshots."""
        fixture_dir = os.path.join(ctx.tmp, "fixture-ckpt") if zipf else None
        fixture["model"] = fit_fixture(ctx, dataset, split, ctx.seed, fixture_dir)
        fixture["snapshots"] = []
        if zipf:
            for entry in CheckpointManager(fixture_dir).entries()[-2:]:
                state = read_checkpoint(os.path.join(fixture_dir, entry["file"]))
                # Serve the inference part of the trainer's snapshot: the
                # provider restores only these keys.
                served = {key: state[key] for key in SERVED_KEYS}
                fixture["snapshots"].append((int(entry["step"]), served))
            ctx.check(len(fixture["snapshots"]) == 2,
                      "fixture wrote fewer than two snapshots")

    def build(last: bool):
        dataset, split = make_data(ctx.seed)
        if not fixture:
            with ctx.untimed():
                make_fixture(dataset, split)
        popularity = split.train.item_degrees()
        registry = MetricsRegistry()
        manager = None
        if zipf:
            serve_dir = tempfile.mkdtemp(prefix="serve-ckpt-", dir=ctx.tmp)
            manager = CheckpointManager(serve_dir, keep_last=2)
            step, state = fixture["snapshots"][0]
            manager.save(state, step=step)
            spec = WorkerSpec(
                builder=lambda: make_model(dataset, split, ctx.seed),
                checkpoint_dir=serve_dir, popularity=popularity,
                default_top_n=TOP_N,
            )
            with ctx.untimed():
                # The worker forks with the parent's pages mapped, so the
                # garbage of earlier set-ups would count in its memory.
                gc.collect()
            service = build_service(spec, PROCESS_WORKERS, backend="process",
                                    hot_ttl=HOT_TTL, metrics=registry)
        else:
            workers = []
            for _ in range(ctx.nproc):
                provider = StaticModelProvider(fixture["model"])
                workers.append(RecommendationService(
                    provider, popularity=popularity, default_top_n=TOP_N,
                    breaker=CircuitBreaker(failure_threshold=3, recovery_time=0.1),
                    batcher=MicroBatcher(provider.model, max_batch=MAX_BATCH,
                                         max_wait=BATCH_WAIT),
                ))
            service = ShardedService(workers, popularity=popularity,
                                     hot_ttl=HOT_TTL, metrics=registry)
        train_items = split.train.items_of_user()
        for user in range(4 * ctx.nproc):  # warm every shard
            service.recommend(user, top_n=TOP_N, exclude=train_items[user])
        if not last and zipf:
            service.close()
        return dataset, split, service, manager, registry

    dataset, split, service, manager, registry = repeat_setup(ctx, build)
    try:
        return _serve_measure(ctx, dataset, split, service, manager, registry,
                              fixture, zipf)
    finally:
        if zipf:
            ctx.extra["peak_rss_mb"] = measure.peak_rss_mb(ctx.child_pids)
            service.close()


def _serve_measure(ctx, dataset, split, service, manager, registry, fixture,
                   zipf) -> Dict[str, Any]:
    """Reference slices alternating with saturation bursts, then the rate
    ladder, then (serve-zipf) the reload window; followed by the output
    checks."""
    from repro.eval.metrics import rank_items
    from repro.serve import default_restore

    models: Dict[str, Any] = {}
    snapshots = fixture["snapshots"]
    if zipf:
        ctx.child_pids = [w.pid for w in service.workers if w.pid]
        for step, state in snapshots:
            models[f"ckpt-step-{step}"] = default_restore(
                make_model(dataset, split, ctx.seed), state)
    else:
        models["static"] = fixture["model"]
    train_items = split.train.items_of_user()

    ladder = LADDER
    slice_count = int(math.ceil(REF_RATE * ctx.seconds / ROUNDS))
    ref_count = ROUNDS * slice_count
    rung_counts = [int(math.ceil(rate * RUNG_SECONDS)) for rate in ladder]
    reload_count = int(math.ceil(REF_RATE * RELOAD_WINDOW_S)) if zipf else 0
    sat_offset = ref_count + sum(rung_counts) + reload_count
    users = np.concatenate([
        traffic(dataset.num_users, sat_offset, SKEW[ctx.workload], ctx.seed),
        traffic(dataset.num_users, SATURATION_USERS, 0.0, ctx.seed + 1),
    ])
    recorder = ctx.recorder

    def idle_sleep(seconds: float) -> None:
        with recorder.span("bench.idle"):
            time.sleep(seconds)

    def sender_root(body: Callable[[], None]) -> None:
        with recorder.span("bench.sender"):
            body()

    def phase(offset: int, count: int, rate: float,
              during: Optional[Callable[[float], None]] = None):
        result: List[openloop.Outcome] = []

        def call(i: int) -> Any:
            user = int(users[offset + i])
            return service.recommend(user, top_n=TOP_N, exclude=train_items[user])

        def drive() -> None:
            result.extend(openloop.run_open_loop(
                call, count, rate, ctx.nproc, sleep=idle_sleep, start=begin,
                before=lambda i: recorder.set_request(offset + i),
                wrap_thread=sender_root))

        begin = time.perf_counter() + 0.05
        thread = threading.Thread(target=drive)
        thread.start()
        if during is not None:
            during(begin)
        with recorder.span("bench.idle"):
            thread.join()
        return result

    reload_info: Dict[str, Any] = {}

    def hot_reload(begin: float) -> None:
        wait = begin + RELOAD_AFTER_S - time.perf_counter()
        if wait > 0:
            idle_sleep(wait)
        with recorder.span("bench.reload"):
            reload_info["start"] = time.perf_counter()
            step, state = snapshots[1]
            manager.save(state, step=step)
            reload_info["outcomes"] = service.poll_reload()
            reload_info["end"] = time.perf_counter()

    def burst(start: int) -> List[openloop.Outcome]:
        """One closed-loop saturation burst; request ``i`` is number
        ``start + i`` of the saturation sequence."""
        def sat_call(i: int) -> Any:
            index = sat_offset + (start + i) % SATURATION_USERS
            recorder.set_request(index)
            user = int(users[index])
            return service.recommend(user, top_n=TOP_N, exclude=train_items[user])

        with recorder.span("bench.idle"):  # main thread waits on the clients
            return openloop.run_closed_loop(
                sat_call, ctx.nproc, BURST_S, wrap_thread=sender_root)

    counters_before = registry.counts()
    recorder.enabled = ctx.trace
    phases: List[tuple] = []
    reference: List[openloop.Outcome] = []
    bursts: List[List[openloop.Outcome]] = []
    reference_hot = {"hits": 0, "misses": 0}
    with recorder.span("bench.measure"):
        sent = 0
        for r in range(ROUNDS):
            before = registry.counts()
            reference.extend(phase(r * slice_count, slice_count, REF_RATE))
            after = registry.counts()
            for key in reference_hot:
                name = f"serve.pool.hotkey.{key}"
                reference_hot[key] += after.get(name, 0) - before.get(name, 0)
            bursts.append(burst(sent))
            sent += len(bursts[-1])
        offset = ref_count
        phases.append(("reference", REF_RATE, reference))
        for rate, count in zip(ladder, rung_counts):
            if rate == REF_RATE:
                continue  # the reference phase is this rung
            if not openloop.phase_stats(phases[-1][2], LIMIT_S,
                                        BACKLOG_SLACK_S)["meets_limit"]:
                break
            phases.append((f"rung-{rate:g}", rate, phase(offset, count, rate)))
            offset += count
        offset = ref_count + sum(rung_counts)
        if zipf:
            phases.append(("reload-window", REF_RATE,
                           phase(offset, reload_count, REF_RATE, hot_reload)))
    recorder.enabled = False
    saturation = [o for b in bursts for o in b]
    counters = {k: v - counters_before.get(k, 0)
                for k, v in registry.counts().items()}

    # ---------------- output checks ----------------
    num_items = dataset.num_items
    levels: Dict[str, int] = {}
    checked = 0
    outcomes = [o for _, _, rung in phases for o in rung] + saturation
    for o in outcomes:
        if not o.ok:
            continue
        response = o.response
        levels[response.level] = levels.get(response.level, 0) + 1
        if response.level != "live":
            continue
        user = int(response.user)
        items = np.asarray(response.items)
        excluded = set(int(i) for i in train_items[user])
        if (len(items) != TOP_N or len(set(items.tolist())) != TOP_N
                or items.min() < 0 or items.max() >= num_items
                or excluded.intersection(items.tolist())):
            ctx.check(False, f"malformed live answer for user {user}")
            continue
        if o.index % OFFLINE_CHECK_EVERY == 0:
            model = models.get(response.model_version)
            if model is None:
                ctx.check(False, f"unknown model version {response.model_version}")
                continue
            expected = rank_items(model.all_scores(np.array([user]))[0],
                                  excluded, TOP_N)
            ctx.check(np.array_equal(expected, items),
                      f"answer for user {user} differs from the offline "
                      f"ranking of {response.model_version}")
            checked += 1
    ctx.check(checked > 0, "no answer was compared with the offline ranking")
    if zipf:
        old, new = (f"ckpt-step-{step}" for step, _ in snapshots)
        window = phases[-1][2]
        states = reload_info.get("outcomes", [])
        ctx.check(len(states) == PROCESS_WORKERS
                  and all(x == "reloaded" for x in states),
                  f"hot reload outcomes {states}")
        # An answer that left a worker before the reload can sit in the
        # hot-key cache for HOT_TTL after it arrived; later requests must
        # all see the new version.
        in_flight = [o.done for o in window if o.sent < reload_info["end"]]
        cutoff = max(in_flight + [reload_info["end"]]) + HOT_TTL
        after = [o for o in window if o.ok and o.sent >= cutoff]
        before = [o for _, _, rung in phases for o in rung
                  if o.ok and o.done <= reload_info["start"]]
        stale = [o for o in after if o.response.model_version != new]
        ctx.check(len(after) > 0 and not stale,
                  f"{len(stale)} of {len(after)} answers after the reload carry "
                  f"an old version, first sent {stale[0].sent - cutoff:.3f}s "
                  f"after the cutoff by worker {stale[0].response.worker}"
                  if stale else "no answer was sent after the reload")
        ctx.check(all(o.response.model_version == old for o in before),
                  "answers before the reload do not all carry the old version")
        reload_info["reload_s"] = reload_info["end"] - reload_info["start"]

    stats = [(name, rate, openloop.phase_stats(rung, LIMIT_S, BACKLOG_SLACK_S))
             for name, rate, rung in phases]
    ladder_stats = [s for name, _, s in stats if name != "reload-window"]
    best = openloop.max_rate(ladder_stats)
    ref_stats = stats[0][2]
    sat_ok = [o for o in saturation if o.ok]
    burst_rps = [
        sum(1 for o in b if o.ok) / (max(o.done for o in b if o.ok) - b[0].due)
        for b in bursts if any(o.ok for o in b)
    ]
    sat_rps = measure.median(burst_rps) if burst_rps else 0.0
    attempted = sum(s["attempted"] for _, _, s in stats) + len(saturation)
    failed = sum(s["failed"] for _, _, s in stats) + len(saturation) - len(sat_ok)
    ctx.extra.update(
        phases=[dict(name=name, rate=rate, **s) for name, rate, s in stats],
        levels=levels, offline_checked=checked, reload=reload_info,
        counters=counters, reference_hotkey=reference_hot, num_items=num_items,
        max_rps=0.0 if best is None else stats[ladder_stats.index(best)][1],
        saturation={"attempted": len(saturation), "succeeded": len(sat_ok),
                    "throughput_per_s": sat_rps, "bursts_per_s": burst_rps},
        reference_latency_ms=[_ms(o.latency) for o in phases[0][2]],
        rerouted=sum(o.response.rerouted for o in outcomes if o.ok),
        serve_requests_in_process=0 if zipf else (
            attempted - counters.get("serve.pool.hotkey.hits", 0)),
    )
    if not zipf:
        ctx.extra["batch"] = {
            "requests": sum(w.counters.get("serve.batch.requests")
                            for w in service.workers),
            "flushes": sum(w.counters.get("serve.batch.flushes")
                           for w in service.workers),
        }
    return {
        "attempted": attempted,
        "failed": failed,
        # Saturation throughput: a capacity figure, the median of the
        # closed-loop bursts.  ``max_rps`` (the highest ladder
        # rung meeting the limit) is reported per layer; on a shared
        # 2-core host it flips between rungs from run to run.
        "throughput_per_s": sat_rps,
        "latency": {
            "n": ref_stats["attempted"],
            "p50": _ms(ref_stats["latency_p50"]),
            "tail_pct": ref_stats["tail_pct"],
            "tail": _ms(ref_stats["latency_tail"]),
        },
        "quality": levels.get("live", 0) / attempted,
    }


RUNNERS = {
    "train": run_train,
    "rank": run_rank,
    "serve-zipf": run_serve,
    "serve-uniform": run_serve,
}
