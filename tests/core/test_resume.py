"""Bit-exact checkpoint/resume tests for both training loops.

The contract under test: training ``N`` epochs in one run and training
``n < N`` epochs, checkpointing, then resuming to ``N`` must produce the
*same bits* — parameters, Adam moments, RNG streams, eval history — and
this must survive simulated crashes mid-epoch and mid-checkpoint-write
(via the :mod:`repro.testing` fault harness).
"""

from __future__ import annotations

import os
import zipfile

import numpy as np
import pytest

from repro import testing
from repro.ckpt import CheckpointError, CheckpointManager, checksum
from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.data import generate_preset, split_dataset
from repro.models import BPRMF, TrainConfig, fit_bpr

from ..helpers import legacy_checkpoints

EPOCHS = 6
HALT = 4  # epoch boundary the interrupted runs checkpoint/resume across


@pytest.fixture(scope="module")
def resume_split():
    dataset = generate_preset("hetrec-del", scale=0.03, seed=11)
    return dataset, split_dataset(dataset, seed=12)


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    testing.reset()


def make_bprmf(resume_split):
    dataset, _ = resume_split
    return BPRMF(dataset.num_users, dataset.num_items, 16, np.random.default_rng(3))


def make_imcat(resume_split):
    dataset, split = resume_split
    rng = np.random.default_rng(3)
    backbone = BPRMF(dataset.num_users, dataset.num_items, 16, rng)
    return IMCAT(
        backbone, dataset, split.train,
        IMCATConfig(num_intents=2, pretrain_epochs=2), rng=rng,
    )


def bpr_config(**overrides):
    return TrainConfig(batch_size=256, eval_every=2, seed=5, **overrides)


def imcat_config(**overrides):
    return IMCATTrainConfig(batch_size=256, eval_every=2, seed=5, **overrides)


def assert_states_equal(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert sorted(state_a) == sorted(state_b)
    for name, array in state_a.items():
        np.testing.assert_array_equal(
            array, state_b[name], err_msg=f"parameter {name} diverged"
        )


def assert_adam_states_equal(state_a, state_b):
    assert state_a["step"] == state_b["step"]
    for key in ("m", "v"):
        for moment_a, moment_b in zip(state_a[key], state_b[key]):
            np.testing.assert_array_equal(moment_a, moment_b)


class TestBitExactResumeBPR:
    def test_resume_matches_uninterrupted(self, resume_split, tmp_path):
        _, split = resume_split
        full_model = make_bprmf(resume_split)
        full = fit_bpr(full_model, split, bpr_config(epochs=EPOCHS))

        part_model = make_bprmf(resume_split)
        fit_bpr(
            part_model, split,
            bpr_config(epochs=HALT, checkpoint_dir=str(tmp_path),
                       checkpoint_every=2),
        )
        resumed_model = make_bprmf(resume_split)
        resumed = fit_bpr(
            resumed_model, split,
            bpr_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path),
                       resume_from="auto"),
        )
        assert_states_equal(full_model, resumed_model)
        assert resumed.best_metric == full.best_metric
        assert resumed.best_epoch == full.best_epoch
        assert resumed.epochs_run == full.epochs_run
        assert resumed.history == full.history

    def test_adam_moments_survive_resume(self, resume_split, tmp_path):
        _, split = resume_split
        # The final-epoch snapshots of an uninterrupted and a resumed run
        # must agree on the optimizer moments, not just the parameters.
        full_dir, resumed_dir = tmp_path / "full", tmp_path / "resumed"
        fit_bpr(
            make_bprmf(resume_split), split,
            bpr_config(epochs=EPOCHS, checkpoint_dir=str(full_dir),
                       checkpoint_every=EPOCHS),
        )
        fit_bpr(
            make_bprmf(resume_split), split,
            bpr_config(epochs=HALT, checkpoint_dir=str(resumed_dir),
                       checkpoint_every=2),
        )
        fit_bpr(
            make_bprmf(resume_split), split,
            bpr_config(epochs=EPOCHS, checkpoint_dir=str(resumed_dir),
                       checkpoint_every=EPOCHS, resume_from="auto"),
        )
        full_ckpt = CheckpointManager(str(full_dir)).load_latest()
        resumed_ckpt = CheckpointManager(str(resumed_dir)).load_latest()
        assert full_ckpt.step == resumed_ckpt.step
        assert_adam_states_equal(
            full_ckpt.state["optimizer"], resumed_ckpt.state["optimizer"]
        )
        assert full_ckpt.state["rng"] == resumed_ckpt.state["rng"]

    def test_scheduler_position_survives_resume(self, resume_split, tmp_path):
        # The cosine horizon is config.epochs, so the interrupted run
        # must share the full budget and die mid-run (crash point) for
        # the LR trajectories to be comparable.
        _, split = resume_split
        full_model = make_bprmf(resume_split)
        fit_bpr(
            full_model, split, bpr_config(epochs=EPOCHS, lr_schedule="cosine")
        )
        crash_model = make_bprmf(resume_split)
        with pytest.raises(testing.SimulatedCrash):
            with testing.CrashPoint(testing.TRAINER_EPOCH, at=HALT):
                fit_bpr(
                    crash_model, split,
                    bpr_config(epochs=EPOCHS, lr_schedule="cosine",
                               checkpoint_dir=str(tmp_path)),
                )
        resumed_model = make_bprmf(resume_split)
        fit_bpr(
            resumed_model, split,
            bpr_config(epochs=EPOCHS, lr_schedule="cosine",
                       checkpoint_dir=str(tmp_path), resume_from="auto"),
        )
        assert_states_equal(full_model, resumed_model)

    def test_config_mismatch_rejected(self, resume_split, tmp_path):
        _, split = resume_split
        fit_bpr(
            make_bprmf(resume_split), split,
            bpr_config(epochs=2, checkpoint_dir=str(tmp_path)),
        )
        with pytest.raises(CheckpointError, match="mismatch"):
            fit_bpr(
                make_bprmf(resume_split), split,
                bpr_config(epochs=EPOCHS, learning_rate=5e-3,
                           checkpoint_dir=str(tmp_path), resume_from="auto"),
            )

    def test_auto_resume_on_fresh_directory_trains_from_scratch(
        self, resume_split, tmp_path
    ):
        _, split = resume_split
        result = fit_bpr(
            make_bprmf(resume_split), split,
            bpr_config(epochs=2, checkpoint_dir=str(tmp_path),
                       resume_from="auto"),
        )
        assert result.epochs_run == 2


class TestBitExactResumeSSL:
    def test_sgl_augmentation_rng_survives_resume(self, resume_split, tmp_path):
        # SGL re-samples graph views from an internal RNG every epoch;
        # the checkpoint must carry that RNG (model extra state) or the
        # resumed run diverges through the SSL loss.
        from repro.bench import MODEL_BUILDERS

        _, split = resume_split

        def make_sgl():
            return MODEL_BUILDERS["SGL"](
                resume_split[0], split, 16, np.random.default_rng(3)
            )

        full_model = make_sgl()
        full = fit_bpr(full_model, split, bpr_config(epochs=EPOCHS))
        part_model = make_sgl()
        fit_bpr(
            part_model, split,
            bpr_config(epochs=HALT, checkpoint_dir=str(tmp_path)),
        )
        resumed_model = make_sgl()
        resumed = fit_bpr(
            resumed_model, split,
            bpr_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path),
                       resume_from="auto"),
        )
        assert_states_equal(full_model, resumed_model)
        assert resumed.history == full.history


class TestBitExactResumeIMCAT:
    def test_resume_matches_uninterrupted(self, resume_split, tmp_path):
        _, split = resume_split
        full_model = make_imcat(resume_split)
        full = IMCATTrainer(full_model, split, imcat_config(epochs=EPOCHS)).fit()

        part_model = make_imcat(resume_split)
        IMCATTrainer(
            part_model, split,
            imcat_config(epochs=HALT, checkpoint_dir=str(tmp_path),
                         checkpoint_every=2),
        ).fit()
        resumed_model = make_imcat(resume_split)
        resumed = IMCATTrainer(
            resumed_model, split,
            imcat_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path),
                         resume_from="auto"),
        ).fit()
        # HALT=4 > pretrain_epochs=2, so the resume crosses back into an
        # active clustering phase: memberships, KL target, and the ISA
        # index must all be restored, not recomputed.
        assert_states_equal(full_model, resumed_model)
        np.testing.assert_array_equal(
            full_model.tag_clusters, resumed_model.tag_clusters
        )
        assert resumed_model.clustering_active == full_model.clustering_active
        assert resumed.best_metric == full.best_metric
        assert resumed.history == full.history

    def test_resume_from_pretrain_phase(self, resume_split, tmp_path):
        _, split = resume_split
        full_model = make_imcat(resume_split)
        full = IMCATTrainer(full_model, split, imcat_config(epochs=EPOCHS)).fit()
        part_model = make_imcat(resume_split)
        IMCATTrainer(
            part_model, split,
            imcat_config(epochs=2, checkpoint_dir=str(tmp_path)),
        ).fit()
        assert not part_model.clustering_active
        resumed_model = make_imcat(resume_split)
        resumed = IMCATTrainer(
            resumed_model, split,
            imcat_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path),
                         resume_from="auto"),
        ).fit()
        # Resuming at the phase boundary must replay K-means warm-start
        # identically (same RNG stream position).
        assert_states_equal(full_model, resumed_model)
        assert resumed.history == full.history

    def test_resume_from_legacy_deflate_snapshot(self, resume_split, tmp_path):
        # Snapshots written while payloads were deflate-compressed must
        # resume into the same bits as an uninterrupted run.
        _, split = resume_split
        full_model = make_imcat(resume_split)
        full = IMCATTrainer(full_model, split, imcat_config(epochs=EPOCHS)).fit()

        with legacy_checkpoints():
            IMCATTrainer(
                make_imcat(resume_split), split,
                imcat_config(epochs=HALT, checkpoint_dir=str(tmp_path),
                             checkpoint_every=2),
            ).fit()
        for entry in CheckpointManager(str(tmp_path)).entries():
            with zipfile.ZipFile(tmp_path / entry["file"]) as archive:
                kinds = {info.compress_type for info in archive.infolist()}
            assert kinds == {zipfile.ZIP_DEFLATED}
        resumed_model = make_imcat(resume_split)
        resumed = IMCATTrainer(
            resumed_model, split,
            imcat_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path),
                         resume_from="auto"),
        ).fit()
        # It resumed from the legacy snapshot: only the epochs past HALT
        # ran, not a fresh run reaching the same bits.
        steps = full.perf.counters["steps"]
        assert resumed.perf.counters["steps"] == steps * (EPOCHS - HALT) // EPOCHS
        assert_states_equal(full_model, resumed_model)
        np.testing.assert_array_equal(
            full_model.tag_clusters, resumed_model.tag_clusters
        )
        assert resumed.best_metric == full.best_metric
        assert resumed.history == full.history


class TestFaultInjection:
    def test_crash_mid_epoch_then_resume_is_bit_exact(
        self, resume_split, tmp_path
    ):
        _, split = resume_split
        full_model = make_bprmf(resume_split)
        full = fit_bpr(full_model, split, bpr_config(epochs=EPOCHS))

        crash_model = make_bprmf(resume_split)
        with pytest.raises(testing.SimulatedCrash):
            with testing.CrashPoint(testing.TRAINER_STEP, at=5):
                fit_bpr(
                    crash_model, split,
                    bpr_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path)),
                )
        resumed_model = make_bprmf(resume_split)
        resumed = fit_bpr(
            resumed_model, split,
            bpr_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path),
                       resume_from="auto"),
        )
        assert_states_equal(full_model, resumed_model)
        assert resumed.history == full.history

    def test_crash_mid_checkpoint_write_manifest_stays_consistent(
        self, resume_split, tmp_path
    ):
        _, split = resume_split
        full_model = make_bprmf(resume_split)
        full = fit_bpr(full_model, split, bpr_config(epochs=EPOCHS))

        crash_model = make_bprmf(resume_split)
        with pytest.raises(testing.SimulatedCrash):
            # Odd replace counts hit a payload write (payload and
            # manifest replaces alternate), so this dies with the third
            # snapshot half-written.
            with testing.CrashPoint(testing.CKPT_BEFORE_REPLACE, at=5):
                fit_bpr(
                    crash_model, split,
                    bpr_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path)),
                )
        # The manifest must reference only intact, checksum-valid files.
        manager = CheckpointManager(str(tmp_path))
        entries = manager.entries()
        assert entries, "crash run should have persisted earlier snapshots"
        for entry in entries:
            path = tmp_path / entry["file"]
            assert path.exists()
            with open(path, "rb") as handle:
                assert checksum(handle.read()) == entry["sha256"]

        resumed_model = make_bprmf(resume_split)
        resumed = fit_bpr(
            resumed_model, split,
            bpr_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path),
                       resume_from="auto"),
        )
        assert_states_equal(full_model, resumed_model)
        assert resumed.history == full.history

    def test_garbled_checkpoint_falls_back_with_warning(
        self, resume_split, tmp_path
    ):
        _, split = resume_split
        full_model = make_bprmf(resume_split)
        full = fit_bpr(full_model, split, bpr_config(epochs=EPOCHS))

        part_model = make_bprmf(resume_split)
        with testing.FaultyWrites(
            testing.CKPT_PAYLOAD_WRITE, mode="garble", at=HALT
        ) as fault:
            fit_bpr(
                part_model, split,
                bpr_config(epochs=HALT, checkpoint_dir=str(tmp_path),
                           keep_last=HALT),
            )
        assert fault.corrupted, "the final snapshot write must be garbled"

        resumed_model = make_bprmf(resume_split)
        with pytest.warns(RuntimeWarning, match="checksum"):
            resumed = fit_bpr(
                resumed_model, split,
                bpr_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path),
                           keep_last=HALT, resume_from="auto"),
            )
        # Fallback restarts one epoch earlier (epoch HALT-1) yet still
        # reproduces the uninterrupted run bit-exactly.
        assert_states_equal(full_model, resumed_model)
        assert resumed.history == full.history

    def test_truncated_checkpoint_falls_back(self, resume_split, tmp_path):
        _, split = resume_split
        part_model = make_bprmf(resume_split)
        with testing.FaultyWrites(
            testing.CKPT_PAYLOAD_WRITE, mode="truncate", at=HALT, fraction=0.3
        ):
            fit_bpr(
                part_model, split,
                bpr_config(epochs=HALT, checkpoint_dir=str(tmp_path),
                           keep_last=HALT),
            )
        with pytest.warns(RuntimeWarning, match="checksum"):
            found = CheckpointManager(str(tmp_path), keep_last=HALT).load_latest()
        assert found is not None
        assert found.state["epoch"] == HALT - 1

    def test_imcat_crash_mid_checkpoint_write_recovers(
        self, resume_split, tmp_path
    ):
        _, split = resume_split
        full_model = make_imcat(resume_split)
        full = IMCATTrainer(full_model, split, imcat_config(epochs=EPOCHS)).fit()

        crash_model = make_imcat(resume_split)
        with pytest.raises(testing.SimulatedCrash):
            with testing.CrashPoint(testing.CKPT_BEFORE_REPLACE, at=7):
                IMCATTrainer(
                    crash_model, split,
                    imcat_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path)),
                ).fit()
        manager = CheckpointManager(str(tmp_path))
        for entry in manager.entries():
            with open(tmp_path / entry["file"], "rb") as handle:
                assert checksum(handle.read()) == entry["sha256"]
        resumed_model = make_imcat(resume_split)
        resumed = IMCATTrainer(
            resumed_model, split,
            imcat_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path),
                         resume_from="auto"),
        ).fit()
        assert_states_equal(full_model, resumed_model)
        np.testing.assert_array_equal(
            full_model.tag_clusters, resumed_model.tag_clusters
        )
        assert resumed.best_metric == full.best_metric
        assert resumed.history == full.history

    def test_crash_leaves_no_stray_tmp_after_restart(
        self, resume_split, tmp_path
    ):
        _, split = resume_split
        with pytest.raises(testing.SimulatedCrash):
            with testing.CrashPoint(testing.CKPT_BEFORE_REPLACE, at=3):
                fit_bpr(
                    make_bprmf(resume_split), split,
                    bpr_config(epochs=EPOCHS, checkpoint_dir=str(tmp_path)),
                )
        assert any(name.endswith(".tmp") for name in os.listdir(tmp_path))
        CheckpointManager(str(tmp_path))  # restart cleans the torn write
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))
