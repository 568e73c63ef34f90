"""Differential harness: the single-node ops carry the reference bits.

``F.bpr_loss``, ``F.info_nce`` and ``F.batched_linear`` each record one
tape node that runs the NumPy operations of a longer chain of primitive
ops.  The contract is that this changes the *tape*, never the
*numbers*: every loss value, every parameter gradient, and every
post-optimizer-step parameter carries the same float64 bits as the
reference.  This suite locks that down three ways:

- a property sweep over every registry model (one full
  forward/backward/Adam step, name-derived seeds and batch shapes)
  against the same step with the loss ops swapped for their primitive
  chains (``reference_ops`` in ``tests/helpers.py``);
- the IMCAT ``training_loss`` across the paper's ablation axes, with
  clustering both inactive and active, against the per-intent reference
  loop (``reference_alignment_loss``): K separate views, ``Linear``
  projections and heads, and primitive-chain losses;
- finite-difference gradchecks of each op in isolation.

Bitwise equality is asserted with ``np.array_equal`` — no tolerances.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.bench import MODEL_BUILDERS
from repro.core import IMCAT, IMCATConfig
from repro.data import BPRSampler, ItemTagSampler
from repro.models import BPRMF
from repro.nn import Adam, Tensor
from repro.nn import functional as F

from ..helpers import assert_gradcheck, reference_ops


def _seed(name: str) -> int:
    """Deterministic per-model seed so shapes/draws vary across entries."""
    return zlib.crc32(name.encode("utf-8")) % 100_000


def _grads(model) -> dict:
    return {
        name: None if param.grad is None else param.grad.copy()
        for name, param in model.named_parameters()
    }


def _assert_same_grads(reference: dict, actual: dict) -> None:
    assert reference.keys() == actual.keys()
    for key in reference:
        if reference[key] is None or actual[key] is None:
            assert reference[key] is None and actual[key] is None, key
        else:
            assert np.array_equal(reference[key], actual[key]), key


def _full_step(model, batch, rng):
    """One loss/backward/Adam step; returns (loss, grads, params)."""
    model.train()
    model.refresh_epoch(0)
    model.begin_step()
    loss = model.bpr_loss(batch)
    extra = model.extra_loss(rng)
    if extra is not None:
        loss = loss + extra
    optimizer = Adam(model.parameters(), lr=0.01)
    optimizer.zero_grad()
    loss.backward()
    grads = _grads(model)
    optimizer.step()
    return float(loss.item()), grads, model.state_dict()


class TestModelStepDifferential:
    """Every registry model: one op == primitive chain to the bit."""

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_step_bit_identical(self, name, small_dataset, small_split):
        seed = _seed(name)
        batch_size = 17 + (seed % 3) * 16  # vary shapes across models
        sampler = BPRSampler(small_split.train, seed=seed)
        batch = next(sampler.epoch(batch_size, shuffle=False))

        def run(reference):
            model = MODEL_BUILDERS[name](
                small_dataset, small_split, 8, np.random.default_rng(seed)
            )
            with reference_ops(reference):
                return _full_step(model, batch, np.random.default_rng(seed + 1))

        loss_ref, grads_ref, params_ref = run(True)
        loss, grads, params = run(False)
        assert loss_ref == loss
        _assert_same_grads(grads_ref, grads)
        assert params_ref.keys() == params.keys()
        for key in params_ref:
            assert np.array_equal(params_ref[key], params[key]), key

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_tag_loss_bit_identical(self, name, small_dataset, small_split):
        seed = _seed(name)
        probe = MODEL_BUILDERS[name](
            small_dataset, small_split, 8, np.random.default_rng(seed)
        )
        if not hasattr(probe, "tag_bpr_loss"):
            pytest.skip(f"{name} is not tag-aware")
        batch = next(
            ItemTagSampler(small_dataset, seed=seed).epoch(33, shuffle=False)
        )

        def run(reference):
            model = MODEL_BUILDERS[name](
                small_dataset, small_split, 8, np.random.default_rng(seed)
            )
            model.train()
            with reference_ops(reference):
                loss = model.tag_bpr_loss(batch)
                model.zero_grad()
                loss.backward()
            return float(loss.item()), _grads(model)

        loss_ref, grads_ref = run(True)
        loss, grads = run(False)
        assert loss_ref == loss
        _assert_same_grads(grads_ref, grads)


#: Compact slice of the paper's Table III / Fig. 6 ablation axes — each
#: entry exercises a different branch mix inside the stacked alignment.
ABLATIONS = {
    "full": {},
    "no-nlt": {"use_nlt": False},
    "no-isa": {"use_isa": False},
    "no-relatedness": {"use_relatedness": False},
    "wo-ui": {"align_item": False},
    "wo-ut": {"align_tag": False},
    "wo-uit": {"use_alignment": False},
}


def _imcat_loss(config, clustering, reference, dataset, split):
    """One IMCAT ``training_loss`` forward/backward; (loss, grads)."""
    ui = next(BPRSampler(split.train, seed=3).epoch(64, shuffle=False))
    it = next(ItemTagSampler(dataset, seed=4).epoch(64, shuffle=False))
    items = np.arange(min(32, dataset.num_items))
    rng = np.random.default_rng(7)
    backbone = BPRMF(dataset.num_users, dataset.num_items, 16, rng)
    model = IMCAT(backbone, dataset, split.train, config, rng=rng)
    model.train()
    if clustering:
        model.activate_clustering(np.random.default_rng(11))
    model.refresh_epoch(0)
    model.begin_step()
    with reference_ops(reference):
        loss = model.training_loss(ui, it, items, np.random.default_rng(13))
        model.zero_grad()
        loss.backward()
    return float(loss.item()), _grads(model)


class TestImcatDifferential:
    """The joint IMCAT objective against the per-intent reference loop."""

    @pytest.mark.parametrize("clustering", [False, True])
    @pytest.mark.parametrize("variant", sorted(ABLATIONS))
    def test_training_loss_bit_identical(
        self, variant, clustering, small_dataset, small_split
    ):
        config = IMCATConfig(
            num_intents=4, align_batch_size=32, **ABLATIONS[variant]
        )
        loss_ref, grads_ref = _imcat_loss(
            config, clustering, True, small_dataset, small_split
        )
        loss, grads = _imcat_loss(
            config, clustering, False, small_dataset, small_split
        )
        assert loss_ref == loss
        _assert_same_grads(grads_ref, grads)

    @pytest.mark.parametrize("clustering", [False, True])
    def test_byol_objective_bit_identical(
        self, clustering, small_dataset, small_split
    ):
        # The BYOL variant feeds the stacked projections to per-intent
        # predictors instead of InfoNCE.
        config = IMCATConfig(
            num_intents=4, align_batch_size=32, alignment_objective="byol"
        )
        loss_ref, grads_ref = _imcat_loss(
            config, clustering, True, small_dataset, small_split
        )
        loss, grads = _imcat_loss(
            config, clustering, False, small_dataset, small_split
        )
        assert loss_ref == loss
        _assert_same_grads(grads_ref, grads)


class TestFusedOpGradcheck:
    """Finite-difference checks of each single-node op in isolation."""

    def test_elementwise_bpr(self, rng):
        pos = Tensor(rng.normal(size=23), requires_grad=True)
        neg = Tensor(rng.normal(size=23), requires_grad=True)
        assert_gradcheck(lambda: F.bpr_loss(pos, neg), [pos, neg])

    def test_info_nce_with_mask_and_weights(self, rng):
        queries = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        keys = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        mask = np.eye(6, dtype=bool)
        mask[0, 3] = mask[2, 5] = True  # widened positive sets (Eq. 17)
        weights = rng.uniform(0.5, 1.5, size=6)
        assert_gradcheck(
            lambda: F.info_nce(queries, keys, 0.7, weights, mask),
            [queries, keys],
        )

    def test_batched_linear(self, rng):
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        weights = [
            Tensor(rng.normal(size=(2, 4)), requires_grad=True)
            for _ in range(3)
        ]
        biases = [
            Tensor(rng.normal(size=2), requires_grad=True) for _ in range(3)
        ]
        assert_gradcheck(
            lambda: F.batched_linear(x, weights, biases).sum(),
            [x] + weights + biases,
        )
