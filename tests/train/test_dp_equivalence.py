"""Differential tests for data-parallel training.

The contract from :mod:`repro.train.parallel`: with one worker a
data-parallel run is *bit-identical* to serial training (both backends),
the fork and inline backends are bit-identical to each other at any
worker count, and multi-worker runs track the serial loss trajectory to
tight numerical tolerance (the only difference being the float
summation order of the sharded gradients).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.data import generate_preset, split_dataset
from repro.models import BPRMF, TrainConfig, fit_bpr

from ..helpers import reference_ops

EPOCHS = 3


@pytest.fixture(scope="module")
def dp_split():
    dataset = generate_preset("hetrec-del", scale=0.03, seed=21)
    return dataset, split_dataset(dataset, seed=22)


def make_bprmf(dp_split):
    dataset, _ = dp_split
    return BPRMF(dataset.num_users, dataset.num_items, 16, np.random.default_rng(3))


def make_imcat(dp_split):
    dataset, split = dp_split
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
    return IMCATTrainConfig(epochs=EPOCHS, batch_size=128, eval_every=2,
                            seed=5, **overrides)


def assert_states_equal(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert sorted(state_a) == sorted(state_b)
    for name, array in state_a.items():
        assert np.array_equal(array, state_b[name]), f"parameter {name} diverged"


def run_bpr(dp_split, **overrides):
    _, split = dp_split
    model = make_bprmf(dp_split)
    result = fit_bpr(model, split, bpr_config(**overrides))
    return model, result


def run_imcat(dp_split, **overrides):
    _, split = dp_split
    model = make_imcat(dp_split)
    result = IMCATTrainer(model, split, imcat_config(**overrides)).fit()
    return model, result


class TestBprEquivalence:
    @pytest.mark.parametrize("backend", ["inline", "fork"])
    def test_one_worker_is_bitwise_serial(self, dp_split, backend):
        serial_model, serial = run_bpr(dp_split)
        dp_model, dp = run_bpr(dp_split, dp_workers=1, dp_backend=backend)
        assert dp.history == serial.history
        assert_states_equal(dp_model, serial_model)

    def test_fork_matches_inline_multiworker(self, dp_split):
        inline_model, inline = run_bpr(
            dp_split, dp_workers=3, dp_backend="inline"
        )
        fork_model, fork = run_bpr(dp_split, dp_workers=3, dp_backend="fork")
        assert fork.history == inline.history
        assert_states_equal(fork_model, inline_model)

    def test_multiworker_rerun_is_deterministic(self, dp_split):
        model_a, result_a = run_bpr(dp_split, dp_workers=3, dp_backend="fork")
        model_b, result_b = run_bpr(dp_split, dp_workers=3, dp_backend="fork")
        assert result_a.history == result_b.history
        assert_states_equal(model_a, model_b)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_multiworker_tracks_serial_trajectory(self, dp_split, seed):
        # Multi-worker runs shard the per-batch gradient sum, so bits may
        # differ from serial — but only by summation order.  The loss
        # trajectory must stay within float-reassociation distance.
        _, serial = run_bpr(dp_split, seed=seed)
        _, dp = run_bpr(dp_split, seed=seed, dp_workers=3, dp_backend="fork")
        serial_losses = [record["loss"] for record in serial.history]
        dp_losses = [record["loss"] for record in dp.history]
        np.testing.assert_allclose(dp_losses, serial_losses, rtol=1e-6)


class TestImcatEquivalence:
    @pytest.mark.parametrize("backend", ["inline", "fork"])
    def test_one_worker_is_bitwise_serial(self, dp_split, backend):
        # EPOCHS=3 > pretrain_epochs=1 crosses the clustering activation
        # and periodic refreshes inside the data-parallel epochs.
        serial_model, serial = run_imcat(dp_split)
        dp_model, dp = run_imcat(dp_split, dp_workers=1, dp_backend=backend)
        assert dp.history == serial.history
        assert_states_equal(dp_model, serial_model)

    def test_fused_dp_is_bitwise_serial_eager(self, dp_split):
        # The full stack: the single-node loss ops on a data-parallel
        # worker against a serial run of the primitive-chain references
        # and the per-intent alignment loop — still the same bits.
        with reference_ops():
            serial_model, serial = run_imcat(dp_split)
        dp_model, dp = run_imcat(dp_split, dp_workers=1, dp_backend="fork")
        assert dp.history == serial.history
        assert_states_equal(dp_model, serial_model)

    def test_fork_matches_inline_multiworker(self, dp_split):
        inline_model, inline = run_imcat(
            dp_split, dp_workers=3, dp_backend="inline"
        )
        fork_model, fork = run_imcat(dp_split, dp_workers=3, dp_backend="fork")
        assert fork.history == inline.history
        assert_states_equal(fork_model, inline_model)

    def test_multiworker_tracks_serial_trajectory(self, dp_split):
        _, serial = run_imcat(dp_split)
        _, dp = run_imcat(dp_split, dp_workers=3, dp_backend="fork")
        serial_losses = [record["loss"] for record in serial.history]
        dp_losses = [record["loss"] for record in dp.history]
        np.testing.assert_allclose(dp_losses, serial_losses, rtol=1e-6)
