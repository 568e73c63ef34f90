"""Training-at-speed: serial and data-parallel throughput.

Not a paper table — this bench tracks the repository's own training
performance trajectory.  It times the IMCAT loop (BPRMF backbone, K=8
intents, batch 256 — the regime where per-op tape overhead dominates
the step) at two operating points:

- ``serial``  the default trainer, single process (the baseline);
- ``dp``      shared-memory data-parallel workers
  (``W = min(4, cpu_count)``) sharding each batch's gradient compute.

Floors: the dp point must clear ``MIN_DP_SPEEDUP`` (2x) wherever the
data-parallel lever actually has cores to pull on (``cpu_count >= 4``)
— on smaller machines the point is still measured, recorded, and held
to a no-pathology floor.  Correctness rides along: a single-worker dp
history must be *bit-identical* to serial; multi-worker dp must track
serial within float-reassociation tolerance.

Knobs: ``REPRO_BENCH_SCALE`` shrinks the benchmark dataset (the file is
only written at the default full scale so the recorded trajectory stays
comparable across runs).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.data import generate_preset, split_dataset
from repro.models import BPRMF

from .conftest import env_float, run_once

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_train.json")

#: The 2x bar needs >= 4 cores; below that the dp point only has to
#: stay within the per-step cost of its worker machinery.
MIN_DP_SPEEDUP = 2.0
MIN_DP_SINGLE_CORE_SPEEDUP = 0.8
#: Multi-worker runs reassociate the sharded gradient sum; the loss
#: trajectory may differ from serial only at float-roundoff order.
TRAJECTORY_RTOL = 1e-6

DATASET_SCALE = 0.3
EPOCHS = 3
BATCH_SIZE = 256
EMBED_DIM = 64
NUM_INTENTS = 8


def _make_model(dataset, split):
    rng = np.random.default_rng(3)
    backbone = BPRMF(dataset.num_users, dataset.num_items, EMBED_DIM, rng)
    return IMCAT(
        backbone, dataset, split.train,
        IMCATConfig(num_intents=NUM_INTENTS, pretrain_epochs=1),
        rng=rng,
    )


def _fit(dataset, split, **overrides):
    model = _make_model(dataset, split)
    config = IMCATTrainConfig(
        epochs=EPOCHS, batch_size=BATCH_SIZE, eval_every=10 * EPOCHS,
        patience=10 * EPOCHS, seed=5, **overrides,
    )
    start = time.perf_counter()
    result = IMCATTrainer(model, split, config).fit()
    seconds = time.perf_counter() - start
    return {
        "seconds_per_epoch": seconds / EPOCHS,
        "losses": [record["loss"] for record in result.history],
    }


def _run_suite(scale: float, workers: int) -> dict:
    dataset = generate_preset("hetrec-del", scale=DATASET_SCALE * scale, seed=7)
    split = split_dataset(dataset, seed=8)
    serial = _fit(dataset, split)
    dp = _fit(dataset, split, dp_workers=workers, dp_backend="fork")
    baseline = serial["seconds_per_epoch"]
    results = {}
    for name, point in (("imcat/serial", serial), ("imcat/dp", dp)):
        results[name] = {
            "seconds_per_epoch": point["seconds_per_epoch"],
            "speedup": baseline / point["seconds_per_epoch"],
            "losses": point["losses"],
        }
    results["imcat/dp"]["workers"] = workers
    return {
        "results": results,
        "settings": {
            "dataset": "hetrec-del",
            "dataset_scale": DATASET_SCALE * scale,
            "epochs": EPOCHS,
            "batch_size": BATCH_SIZE,
            "embed_dim": EMBED_DIM,
            "num_intents": NUM_INTENTS,
            "cpu_count": os.cpu_count(),
        },
    }


def test_train_throughput(benchmark):
    scale = env_float("REPRO_BENCH_SCALE", 1.0)
    workers = max(1, min(4, os.cpu_count() or 1))

    payload = run_once(benchmark, lambda: _run_suite(scale, workers))
    results = payload["results"]
    print()
    for name, point in results.items():
        print(
            f"{name:16s} {point['seconds_per_epoch']:8.3f} s/epoch "
            f"({point['speedup']:.2f}x)"
        )

    # Correctness ride-along: a single dp worker replays the exact
    # serial epoch.
    serial_losses = results["imcat/serial"]["losses"]
    dp_losses = results["imcat/dp"]["losses"]
    if workers == 1:
        assert dp_losses == serial_losses, (
            "single-worker dp loss trajectory diverged from serial bits"
        )
    else:
        np.testing.assert_allclose(
            dp_losses, serial_losses, rtol=TRAJECTORY_RTOL
        )

    # Record before the speed floors: a point below its floor is still
    # the honest measurement, and the test fails after writing it.
    if scale == 1.0:
        with open(RESULTS_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded: {RESULTS_PATH}")

    dp_speedup = results["imcat/dp"]["speedup"]
    if (os.cpu_count() or 1) >= 4:
        assert dp_speedup >= MIN_DP_SPEEDUP, (
            f"dp speedup {dp_speedup:.2f}x below {MIN_DP_SPEEDUP}x"
        )
    else:
        # Not enough cores for the parallel lever: hold the dp point to
        # a no-pathology floor instead of the 2x bar.
        assert dp_speedup >= MIN_DP_SINGLE_CORE_SPEEDUP, (
            f"dp speedup {dp_speedup:.2f}x below the single-core "
            f"floor {MIN_DP_SINGLE_CORE_SPEEDUP}x"
        )
        print(
            f"note: {os.cpu_count()} core(s); the {MIN_DP_SPEEDUP}x "
            f"dp floor needs >= 4"
        )
