"""Generic BPR training loop with validation early stopping.

Implements the protocol of Section V.D for backbones and baselines:
Adam, learning rate / weight decay ``1e-3``, batch size 1024, one
negative per positive, early stopping when validation Recall@20 stops
improving.  IMCAT has its own trainer (``repro.core.trainer``) because of
the pre-training phase and cluster refresh schedule.
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
from ..data.sampling import BPRSampler
from ..data.split import Split
from ..eval.evaluator import Evaluator
from ..nn import Adam, CosineAnnealing, StepDecay, clip_grad_norm, detect_anomaly
from .base import Recommender


@dataclass
class TrainConfig:
    """Training hyper-parameters (paper defaults, scaled-down epochs).

    ``lr_schedule`` selects an optional per-epoch schedule ("cosine" or
    "step"); ``clip_norm`` enables global gradient-norm clipping.  Both
    default to off, matching the paper's fixed-rate Adam.
    """

    epochs: int = 100
    batch_size: int = 1024
    learning_rate: float = 1e-3
    weight_decay: float = 1e-3
    eval_every: int = 5
    patience: int = 4
    top_n: int = 20
    seed: int = 0
    verbose: bool = False
    lr_schedule: Optional[str] = None
    clip_norm: Optional[float] = None
    detect_anomaly: bool = False
    """Run training under :class:`repro.nn.detect_anomaly`: NaN/Inf on
    the tape raises at the creating op instead of poisoning the run."""
    checkpoint_dir: Optional[str] = None
    """Directory for :mod:`repro.ckpt` snapshots; ``None`` disables
    checkpointing entirely."""
    checkpoint_every: int = 1
    """Snapshot every N epochs at the epoch boundary."""
    keep_last: int = 3
    """Rolling retention: newest snapshots kept (plus best-by-metric)."""
    resume_from: Optional[str] = None
    """``"auto"`` resumes from the newest valid snapshot under
    ``checkpoint_dir`` (fresh start when there is none); a path loads
    that checkpoint file or directory explicitly."""

    def __post_init__(self) -> None:
        if self.lr_schedule not in (None, "cosine", "step"):
            raise ValueError(
                f"lr_schedule must be None, 'cosine', or 'step', "
                f"got {self.lr_schedule!r}"
            )


@dataclass
class TrainResult:
    """Outcome of a training run."""

    best_metric: float
    best_epoch: int
    epochs_run: int
    wall_time: float
    history: List[dict] = field(default_factory=list)


def fit_bpr(
    model: Recommender,
    split: Split,
    config: Optional[TrainConfig] = None,
    evaluator: Optional[Evaluator] = None,
) -> TrainResult:
    """Train ``model`` on ``split.train`` with BPR + early stopping.

    The model's :meth:`Recommender.extra_loss` hook is added to every
    batch loss, which is how SSL/KG baselines inject their auxiliary
    objectives.  The best validation state is restored before returning.
    ``config.detect_anomaly`` wraps the run in the autograd numeric
    sanitizer (see :class:`repro.nn.detect_anomaly`).
    """
    config = config or TrainConfig()
    with detect_anomaly(config.detect_anomaly):
        return _fit_bpr(model, split, config, evaluator)


def _fit_bpr(
    model: Recommender,
    split: Split,
    config: TrainConfig,
    evaluator: Optional[Evaluator],
) -> TrainResult:
    tracer = obs.get_tracer()
    metrics = obs.get_metrics()
    rng = np.random.default_rng(config.seed)
    sampler = BPRSampler(split.train, seed=config.seed)
    evaluator = evaluator or Evaluator(
        split.train, split.valid, top_n=(config.top_n,), metrics=("recall",)
    )
    metric_key = f"recall@{config.top_n}"
    optimizer = Adam(
        model.parameters(),
        lr=config.learning_rate,
        weight_decay=config.weight_decay,
    )
    scheduler = None
    if config.lr_schedule == "cosine":
        scheduler = CosineAnnealing(optimizer, total_epochs=config.epochs)
    elif config.lr_schedule == "step":
        scheduler = StepDecay(
            optimizer, step_size=max(config.epochs // 3, 1), gamma=0.5
        )

    manager = None
    if config.checkpoint_dir is not None:
        manager = CheckpointManager(
            config.checkpoint_dir, keep_last=config.keep_last, tracer=tracer
        )
    fingerprint = config_fingerprint(
        config, {"kind": "bpr", "model": type(model).__name__}
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
                "checkpoint/config mismatch: the snapshot was written under "
                f"fingerprint {resumed.get('fingerprint')!r} but this run "
                f"has {fingerprint!r}; resume with the same optimisation "
                "settings (the epoch budget may differ)"
            )
        model.load_state_dict(resumed["model"])
        if resumed.get("model_extra") is not None:
            model.set_extra_state(resumed["model_extra"])
        optimizer.load_state_dict(resumed["optimizer"])
        if scheduler is not None and resumed["scheduler"] is not None:
            scheduler.load_state_dict(resumed["scheduler"])
        set_rng_state(rng, resumed["rng"])
        sampler.load_state_dict(resumed["sampler"])
        best = resumed["best"]
        best_metric = -np.inf if best["metric"] is None else best["metric"]
        best_epoch = best["epoch"]
        best_state = best["state"]
        bad_evals = best["bad_evals"]
        history = list(resumed["history"])
        step = resumed["step"]
        epochs_run = resumed["epochs_run"]
        start_epoch = resumed["epoch"]

    def snapshot(next_epoch: int) -> dict:
        """Full training state at an epoch boundary (bit-exact)."""
        return {
            "version": 1,
            "kind": "bpr",
            "fingerprint": fingerprint,
            "epoch": next_epoch,
            "step": step,
            "epochs_run": epochs_run,
            "model": model.state_dict(),
            "model_extra": (
                model.get_extra_state()
                if hasattr(model, "get_extra_state") else None
            ),
            "optimizer": optimizer.state_dict(),
            "scheduler": None if scheduler is None else scheduler.state_dict(),
            "rng": rng_state(rng),
            "sampler": sampler.state_dict(),
            "best": {
                "metric": None if best_state is None else float(best_metric),
                "epoch": best_epoch,
                "state": best_state,
                "bad_evals": bad_evals,
            },
            "history": history,
        }

    with tracer.span(
        "train", kind="bpr", model=type(model).__name__
    ) as train_span:
        for epoch in range(start_epoch, config.epochs):
            epochs_run = epoch + 1
            stop_early = False
            with tracer.span("epoch", index=epoch) as epoch_span:
                epoch_loss = 0.0
                num_batches = 0
                model.train()
                model.refresh_epoch(epoch)
                for batch in sampler.epoch(config.batch_size):
                    model.begin_step()
                    loss = model.bpr_loss(batch)
                    extra = model.extra_loss(rng)
                    if extra is not None:
                        loss = loss + extra
                    optimizer.zero_grad()
                    loss.backward()
                    if config.clip_norm is not None:
                        clip_grad_norm(
                            optimizer.parameters, config.clip_norm
                        )
                    optimizer.step()
                    epoch_loss += loss.item()
                    num_batches += 1
                    step += 1
                    testing.check(testing.TRAINER_STEP)
                if scheduler is not None:
                    scheduler.step()

                record = {
                    "epoch": epoch, "loss": epoch_loss / max(num_batches, 1)
                }
                metrics.gauge("bpr.loss").set(record["loss"])
                if (
                    (epoch + 1) % config.eval_every == 0
                    or epoch == config.epochs - 1
                ):
                    model.eval()
                    with tracer.span("eval", metric=metric_key):
                        result = evaluator.evaluate(model, tracer=tracer)
                    record[metric_key] = result[metric_key]
                    metrics.gauge(f"bpr.valid.{metric_key}").set(
                        result[metric_key]
                    )
                    if config.verbose:
                        print(
                            f"[{model.__class__.__name__}] epoch {epoch}: "
                            f"loss={record['loss']:.4f} "
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
                epoch_span.set_attributes(
                    loss=record["loss"], steps=num_batches
                )
            history.append(record)
            if stop_early:
                break
            if (
                manager is not None
                and (epoch + 1) % config.checkpoint_every == 0
            ):
                manager.save(
                    snapshot(next_epoch=epoch + 1),
                    step=step,
                    metric=record.get(metric_key),
                )
            testing.check(testing.TRAINER_EPOCH)
        train_span.set_attributes(
            best_metric=float(best_metric) if best_metric > -np.inf else 0.0,
            epochs_run=epochs_run,
        )

    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    return TrainResult(
        best_metric=float(best_metric) if best_metric > -np.inf else 0.0,
        best_epoch=best_epoch,
        epochs_run=epochs_run,
        wall_time=time.time() - start,
        history=history,
    )
