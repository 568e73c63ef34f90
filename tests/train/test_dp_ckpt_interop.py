"""Checkpoint interop across execution modes.

``dp_workers``/``dp_backend`` are volatile config fields: a snapshot
written under any execution mode must resume under any other with a
bit-exact continuation.  These tests halt a run at an epoch boundary in
one mode and finish it in another, comparing against the uninterrupted
serial run.  The serial halves run the primitive-chain reference ops
(``reference_ops`` in ``tests/helpers.py``) and the data-parallel halves
the single-node ops, so every resume also crosses between the two.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.data import generate_preset, split_dataset
from repro.models import BPRMF, TrainConfig, fit_bpr

from ..helpers import reference_ops

EPOCHS = 4
HALT = 2


@pytest.fixture(scope="module")
def interop_split():
    dataset = generate_preset("hetrec-del", scale=0.03, seed=31)
    return dataset, split_dataset(dataset, seed=32)


def make_bprmf(interop_split):
    dataset, _ = interop_split
    return BPRMF(dataset.num_users, dataset.num_items, 16, np.random.default_rng(3))


def make_imcat(interop_split):
    dataset, split = interop_split
    rng = np.random.default_rng(3)
    backbone = BPRMF(dataset.num_users, dataset.num_items, 16, rng)
    return IMCAT(
        backbone, dataset, split.train,
        IMCATConfig(num_intents=2, pretrain_epochs=1, cluster_refresh_every=5),
        rng=rng,
    )


def bpr_config(**overrides):
    defaults = dict(epochs=EPOCHS, batch_size=128, eval_every=2, seed=5)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def imcat_config(**overrides):
    defaults = dict(epochs=EPOCHS, batch_size=128, eval_every=2, seed=5)
    defaults.update(overrides)
    return IMCATTrainConfig(**defaults)


def assert_states_equal(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert sorted(state_a) == sorted(state_b)
    for name, array in state_a.items():
        assert np.array_equal(array, state_b[name]), f"parameter {name} diverged"


#: "serial" runs under ``reference_ops``; "fused-dp-fork" is the
#: single-node ("fused") ops on a forked worker.
MODES = {
    "serial": {},
    "fused-dp-fork": {"dp_workers": 1, "dp_backend": "fork"},
    "dp-inline": {"dp_workers": 1, "dp_backend": "inline"},
}


class TestBprInterop:
    @pytest.mark.parametrize("halt_mode", sorted(MODES))
    @pytest.mark.parametrize("resume_mode", sorted(MODES))
    def test_cross_mode_resume_is_bit_exact(
        self, interop_split, tmp_path, halt_mode, resume_mode
    ):
        if halt_mode == resume_mode == "serial":
            pytest.skip("covered by tests/core/test_resume.py")
        _, split = interop_split
        full_model = make_bprmf(interop_split)
        full = fit_bpr(full_model, split, bpr_config())

        part_model = make_bprmf(interop_split)
        with reference_ops(halt_mode == "serial"):
            fit_bpr(
                part_model, split,
                bpr_config(epochs=HALT, checkpoint_dir=str(tmp_path),
                           **MODES[halt_mode]),
            )
        resumed_model = make_bprmf(interop_split)
        with reference_ops(resume_mode == "serial"):
            resumed = fit_bpr(
                resumed_model, split,
                bpr_config(checkpoint_dir=str(tmp_path), resume_from="auto",
                           **MODES[resume_mode]),
            )
        assert resumed.history == full.history
        assert_states_equal(resumed_model, full_model)


class TestImcatInterop:
    def test_serial_snapshot_resumes_fused_dp(self, interop_split, tmp_path):
        # HALT=2 > pretrain_epochs=1: the resume re-enters an active
        # clustering phase on a data-parallel worker.
        _, split = interop_split
        full_model = make_imcat(interop_split)
        full = IMCATTrainer(full_model, split, imcat_config()).fit()

        part_model = make_imcat(interop_split)
        with reference_ops():
            IMCATTrainer(
                part_model, split,
                imcat_config(epochs=HALT, checkpoint_dir=str(tmp_path)),
            ).fit()
        resumed_model = make_imcat(interop_split)
        resumed = IMCATTrainer(
            resumed_model, split,
            imcat_config(checkpoint_dir=str(tmp_path), resume_from="auto",
                         dp_workers=1, dp_backend="fork"),
        ).fit()
        assert resumed.history == full.history
        assert_states_equal(resumed_model, full_model)

    def test_fused_dp_snapshot_resumes_serial(self, interop_split, tmp_path):
        _, split = interop_split
        full_model = make_imcat(interop_split)
        full = IMCATTrainer(full_model, split, imcat_config()).fit()

        part_model = make_imcat(interop_split)
        IMCATTrainer(
            part_model, split,
            imcat_config(epochs=HALT, checkpoint_dir=str(tmp_path),
                         dp_workers=1, dp_backend="fork"),
        ).fit()
        resumed_model = make_imcat(interop_split)
        with reference_ops():
            resumed = IMCATTrainer(
                resumed_model, split,
                imcat_config(checkpoint_dir=str(tmp_path), resume_from="auto"),
            ).fit()
        assert resumed.history == full.history
        assert_states_equal(resumed_model, full_model)
