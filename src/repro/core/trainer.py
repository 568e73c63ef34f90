"""IMCAT training loop with the paper's phase schedule (Section V.D).

Phase 1 (pre-training): optimise ``L_UV + alpha * L_VT`` (plus the
alignment loss with all tags in one cluster) so tag embeddings become
informative.  Phase 2: warm-start the cluster centres with K-means,
activate ``L_KL``, and refresh hard memberships every
``cluster_refresh_every`` steps.  Early stopping monitors validation
Recall@20.

Every run carries a :class:`~repro.perf.StopwatchRegistry` /
:class:`~repro.perf.CounterRegistry` pair: the trainer times the
sampling / forward / backward / cluster-refresh / eval phases and
attaches the resulting :class:`~repro.perf.PerfReport` to the train
result, so any experiment can print a phase breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import obs, testing
from ..ckpt import (
    CheckpointError,
    CheckpointManager,
    config_fingerprint,
    resolve_resume,
    rng_state,
    set_rng_state,
)
from ..data.sampling import (
    BPRSampler,
    IndexCycler,
    ItemTagSampler,
    TripletCycler,
)
from ..data.split import Split
from ..eval.evaluator import Evaluator
from ..nn import Adam, detect_anomaly
from ..perf import CounterRegistry, PerfReport, StopwatchRegistry
from .clustering import cluster_balance
from .config import IMCATConfig
from .imcat import IMCAT


@dataclass
class IMCATTrainConfig:
    """Optimisation settings for the IMCAT trainer."""

    epochs: int = 60
    batch_size: int = 1024
    learning_rate: float = 1e-3
    weight_decay: float = 1e-3
    eval_every: int = 5
    patience: int = 4
    top_n: int = 20
    seed: int = 0
    verbose: bool = False
    detect_anomaly: bool = False
    """Run the whole fit under :class:`repro.nn.detect_anomaly`, so a
    NaN/Inf raises at the creating op instead of surfacing as a NaN
    loss epochs later.  Costs one finiteness scan per op output."""
    checkpoint_dir: Optional[str] = None
    """Directory for :mod:`repro.ckpt` snapshots; ``None`` disables
    checkpointing entirely."""
    checkpoint_every: int = 1
    """Snapshot every N epochs (at the epoch boundary, where the full
    RNG/sampler state makes the continuation bit-exact)."""
    keep_last: int = 3
    """Rolling retention: newest snapshots kept (plus the best by the
    validation metric)."""
    resume_from: Optional[str] = None
    """``"auto"`` resumes from the newest valid snapshot under
    ``checkpoint_dir`` (fresh start when there is none); a path loads
    that checkpoint file or directory explicitly."""


@dataclass
class IMCATTrainResult:
    """Outcome of an IMCAT training run."""

    best_metric: float
    best_epoch: int
    epochs_run: int
    wall_time: float
    history: List[dict] = field(default_factory=list)
    perf: Optional[PerfReport] = field(default=None, repr=False)


class IMCATTrainer:
    """Drives the two-phase IMCAT optimisation.

    Args:
        model: the :class:`IMCAT` wrapper.
        split: train/valid/test split; training batches come from
            ``split.train``, early stopping from ``split.valid``.
        train_config: optimisation settings.
        evaluator: optional custom validation evaluator.
        perf: optional timer registry to record phase timings into
            (a fresh one is created per :meth:`fit` call otherwise).
        tracer: optional :class:`repro.obs.Tracer`; falls back to the
            process-global tracer (disabled by default).  When tracing
            is on, the run records a ``train`` → ``epoch`` → ``step`` →
            phase span tree plus per-epoch loss and cluster-drift
            gauges in :func:`repro.obs.get_metrics`.
    """

    def __init__(
        self,
        model: IMCAT,
        split: Split,
        train_config: Optional[IMCATTrainConfig] = None,
        evaluator: Optional[Evaluator] = None,
        perf: Optional[StopwatchRegistry] = None,
        tracer: Optional[obs.Tracer] = None,
    ) -> None:
        self.model = model
        self.split = split
        self.config = train_config or IMCATTrainConfig()
        self.evaluator = evaluator or Evaluator(
            split.train,
            split.valid,
            top_n=(self.config.top_n,),
            metrics=("recall",),
        )
        self.perf = perf
        self.tracer = tracer

    def fit(self) -> IMCATTrainResult:
        """Run the full schedule; restores the best validation state.

        With ``config.detect_anomaly`` the run is wrapped in the
        autograd numeric sanitizer: any NaN/Inf produced on the tape
        raises :class:`repro.nn.NumericAnomalyError` naming the
        creating op and its parent shapes.
        """
        with detect_anomaly(self.config.detect_anomaly):
            return self._fit()

    def _fit(self) -> IMCATTrainResult:
        tracer = obs.resolve_tracer(self.tracer)
        with tracer.span(
            "train",
            method="IMCAT",
            backbone=type(self.model.backbone).__name__,
            epochs=self.config.epochs,
        ) as train_span:
            result = self._fit_loop(tracer)
            train_span.set_attributes(
                best_metric=result.best_metric, epochs_run=result.epochs_run
            )
            return result

    def _refresh_clusters(self, rng, perf, tracer, metrics) -> None:
        """One membership refresh, with the drift and balance gauges
        updated.

        Drift is the fraction of tags whose hard cluster changed — the
        convergence signal the end-to-end clustering (and ELCRec-style
        variants) are tuned against.  Balance is the normalised entropy
        of the cluster sizes (:func:`cluster_balance`), which falls
        toward 0 as the clusters collapse into one.
        """
        model = self.model
        with perf.timed("cluster-refresh"):
            with tracer.span("cluster-refresh") as span:
                before = model.tag_clusters.copy()
                model.refresh_clusters(rng)
                drift = (
                    float(np.mean(before != model.tag_clusters))
                    if before.size
                    else 0.0
                )
                balance = cluster_balance(
                    model.tag_clusters, model.config.num_intents
                )
                span.set_attributes(drift=drift, balance=balance)
        metrics.gauge("trainer.cluster_drift").set(drift)
        metrics.gauge("trainer.cluster_balance").set(balance)

    def _fit_loop(self, tracer: obs.Tracer) -> IMCATTrainResult:
        model = self.model
        config = self.config
        imcat_config: IMCATConfig = model.config
        rng = np.random.default_rng(config.seed)
        ui_sampler = BPRSampler(self.split.train, seed=config.seed)
        # The split propagates the full item-tag assignments to every
        # part, so the training view carries all tag labels (tags are
        # item metadata, not held-out interactions).
        it_sampler = ItemTagSampler(self.split.train, seed=config.seed + 1)
        metric_key = f"recall@{config.top_n}"
        optimizer = Adam(
            model.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        perf = self.perf if self.perf is not None else StopwatchRegistry()
        counters = CounterRegistry()
        metrics = obs.get_metrics()
        if model.tracer is None:
            model.tracer = tracer

        # Auxiliary batch streams: index arrays are cached once and
        # reshuffled in place at each wrap instead of rebuilding Python
        # lists of every batch at every epoch.
        it_batches = TripletCycler(it_sampler, config.batch_size, rng)
        item_batches = IndexCycler(
            model.num_items, imcat_config.align_batch_size, rng
        )

        manager = None
        if config.checkpoint_dir is not None:
            manager = CheckpointManager(
                config.checkpoint_dir, keep_last=config.keep_last,
                tracer=tracer,
            )
        fingerprint = config_fingerprint(
            config,
            imcat_config,
            {"kind": "imcat", "backbone": type(model.backbone).__name__},
        )

        best_metric = -np.inf
        best_epoch = -1
        best_state = None
        bad_evals = 0
        history: List[dict] = []
        start = time.time()
        step = 0
        epochs_run = 0
        start_epoch = 0

        resumed = resolve_resume(config.resume_from, manager)
        if resumed is not None:
            if resumed.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    "checkpoint/config mismatch: the snapshot was written "
                    f"under fingerprint {resumed.get('fingerprint')!r} but "
                    f"this run has {fingerprint!r}; resume with the same "
                    "optimisation settings (the epoch budget may differ)"
                )
            model.load_state_dict(resumed["model"])
            model.set_extra_state(resumed["model_extra"])
            optimizer.load_state_dict(resumed["optimizer"])
            set_rng_state(rng, resumed["rng"])
            ui_sampler.load_state_dict(resumed["samplers"]["ui"])
            it_sampler.load_state_dict(resumed["samplers"]["it"])
            it_batches.load_state_dict(resumed["cyclers"]["triplets"])
            item_batches.load_state_dict(resumed["cyclers"]["items"])
            best = resumed["best"]
            best_metric = -np.inf if best["metric"] is None else best["metric"]
            best_epoch = best["epoch"]
            best_state = best["state"]
            bad_evals = best["bad_evals"]
            history = list(resumed["history"])
            step = resumed["step"]
            epochs_run = resumed["epochs_run"]
            start_epoch = resumed["epoch"]
        else:
            # Phase-1 alignment uses a single degenerate cluster; build
            # the ISA index for it once.
            self._refresh_clusters(rng, perf, tracer, metrics)

        def snapshot(next_epoch: int) -> dict:
            """Full training state at an epoch boundary (bit-exact)."""
            return {
                "version": 1,
                "kind": "imcat",
                "fingerprint": fingerprint,
                "epoch": next_epoch,
                "step": step,
                "epochs_run": epochs_run,
                "model": model.state_dict(),
                "model_extra": model.get_extra_state(),
                "optimizer": optimizer.state_dict(),
                "rng": rng_state(rng),
                "samplers": {
                    "ui": ui_sampler.state_dict(),
                    "it": it_sampler.state_dict(),
                },
                "cyclers": {
                    "triplets": it_batches.state_dict(),
                    "items": item_batches.state_dict(),
                },
                "best": {
                    "metric": None if best_state is None else float(best_metric),
                    "epoch": best_epoch,
                    "state": best_state,
                    "bad_evals": bad_evals,
                },
                "history": history,
            }

        for epoch in range(start_epoch, config.epochs):
            epochs_run = epoch + 1
            if epoch == imcat_config.pretrain_epochs:
                with tracer.span("activate-clustering"):
                    model.activate_clustering(rng)
            stop_early = False
            epoch_start = time.perf_counter()
            with tracer.span(
                "epoch", index=epoch, clustering=model.clustering_active
            ) as epoch_span:
                epoch_loss = 0.0
                num_batches = 0
                model.train()
                model.refresh_epoch(epoch)
                ui_epoch = ui_sampler.epoch(config.batch_size)
                while True:
                    with perf.timed("sampling"), tracer.span("sampling"):
                        ui_batch = next(ui_epoch, None)
                        if ui_batch is not None:
                            it_batch = next(it_batches)
                            item_batch = next(item_batches)
                    if ui_batch is None:
                        break
                    model.begin_step()
                    with perf.timed("forward"), tracer.span("forward"):
                        loss = model.training_loss(
                            ui_batch, it_batch, item_batch, rng
                        )
                    with perf.timed("backward"), tracer.span("backward"):
                        optimizer.zero_grad()
                        loss.backward()
                        optimizer.step()
                    epoch_loss += loss.item()
                    num_batches += 1
                    step += 1
                    counters.add("steps")
                    counters.add("triplets", len(ui_batch))
                    testing.check(testing.TRAINER_STEP)
                    if (
                        model.clustering_active
                        and step % imcat_config.cluster_refresh_every == 0
                    ):
                        self._refresh_clusters(rng, perf, tracer, metrics)

                record = {
                    "epoch": epoch, "loss": epoch_loss / max(num_batches, 1)
                }
                epoch_span.set_attributes(
                    loss=record["loss"], steps=num_batches
                )
                metrics.gauge("trainer.loss").set(record["loss"])
                if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
                    model.eval()
                    with perf.timed("eval"):
                        with tracer.span("eval") as eval_span:
                            result = self.evaluator.evaluate(
                                model, perf=perf, tracer=tracer
                            )
                            eval_span.set_attribute(
                                "metric", result[metric_key]
                            )
                    counters.add("evals")
                    metrics.gauge(f"trainer.valid.{metric_key}").set(
                        result[metric_key]
                    )
                    record[metric_key] = result[metric_key]
                    if config.verbose:
                        print(
                            f"[IMCAT/{model.backbone.__class__.__name__}] "
                            f"epoch {epoch}: loss={record['loss']:.4f} "
                            f"{metric_key}={result[metric_key]:.4f}"
                        )
                    if result[metric_key] > best_metric:
                        best_metric = result[metric_key]
                        best_epoch = epoch
                        best_state = model.state_dict()
                        bad_evals = 0
                    else:
                        bad_evals += 1
                        if bad_evals >= config.patience:
                            stop_early = True
                history.append(record)
                if not stop_early and manager is not None and (
                    (epoch + 1) % config.checkpoint_every == 0
                ):
                    with perf.timed("checkpoint"):
                        manager.save(
                            snapshot(next_epoch=epoch + 1),
                            step=step,
                            metric=record.get(metric_key),
                        )
                    counters.add("checkpoints")
            metrics.histogram("trainer.epoch_seconds").observe(
                time.perf_counter() - epoch_start
            )
            if stop_early:
                break
            testing.check(testing.TRAINER_EPOCH)

        if best_state is not None:
            model.load_state_dict(best_state)
        model.eval()
        return IMCATTrainResult(
            best_metric=float(best_metric) if best_metric > -np.inf else 0.0,
            best_epoch=best_epoch,
            epochs_run=epochs_run,
            wall_time=time.time() - start,
            history=history,
            perf=PerfReport.from_registries(perf, counters),
        )
