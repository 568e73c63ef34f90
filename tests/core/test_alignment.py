"""Tests for the IMCA module (Eqs. 7-14)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    IMCATConfig,
    IntentAlignment,
    aggregate_tags_per_cluster,
    aggregate_users,
    relatedness_weights,
)
from repro.nn import Tensor

from ..helpers import assert_gradcheck, tiny_dataset


class TestAggregateUsers:
    def test_matches_manual_mean(self, rng):
        tiny = tiny_dataset()
        emb = Tensor(rng.normal(size=(4, 6)))
        users_of_item = tiny.users_of_item()
        out = aggregate_users(
            np.array([0, 5]), users_of_item, emb, rng, max_users=100
        )
        expected_0 = emb.data[users_of_item[0]].mean(axis=0)
        expected_5 = emb.data[users_of_item[5]].mean(axis=0)
        np.testing.assert_allclose(out.data[0], expected_0)
        np.testing.assert_allclose(out.data[1], expected_5)

    def test_item_without_users_gets_zero(self, rng):
        users_of_item = [np.array([0]), np.array([], dtype=int)]
        emb = Tensor(rng.normal(size=(2, 4)))
        out = aggregate_users(np.array([1]), users_of_item, emb, rng)
        np.testing.assert_allclose(out.data, 0.0)

    def test_subsampling_caps_users(self, rng):
        users_of_item = [np.arange(100)]
        emb = Tensor(rng.normal(size=(100, 4)))
        out = aggregate_users(
            np.array([0]), users_of_item, emb, rng, max_users=5
        )
        assert out.shape == (1, 4)  # runs, mean over only 5 users

    def test_gradients_flow_to_user_embeddings(self, rng):
        tiny = tiny_dataset()
        emb = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        out = aggregate_users(
            np.array([0]), tiny.users_of_item(), emb, rng, max_users=100
        )
        out.sum().backward()
        # Users 0,1,2 interacted with item 0; user 3 did not.
        assert np.abs(emb.grad[:3]).sum() > 0
        np.testing.assert_allclose(emb.grad[3], 0.0)

    def test_gradcheck(self, rng):
        tiny = tiny_dataset()
        emb = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        batch = np.array([0, 1, 5])
        seed_state = rng.bit_generator.state

        def build():
            rng.bit_generator.state = seed_state
            return (
                aggregate_users(batch, tiny.users_of_item(), emb, rng, 100) ** 2
            ).sum()

        assert_gradcheck(build, [emb])


class TestAggregateTags:
    def test_counts_and_means(self, rng):
        tiny = tiny_dataset()
        # Tags: item0 -> {0,1}, item1 -> {0,2}; clusters: tag0,1 -> 0; tag2+ -> 1.
        clusters = np.array([0, 0, 1, 1, 1])
        emb = Tensor(rng.normal(size=(5, 6)))
        agg, counts = aggregate_tags_per_cluster(
            np.array([0, 1]), tiny.tags_of_item(), emb, clusters, 2
        )
        assert agg.shape == (4, 6)
        np.testing.assert_array_equal(counts, [[2, 0], [1, 1]])
        # Item 0, cluster 0: mean of tags 0 and 1.
        np.testing.assert_allclose(agg.data[0], emb.data[[0, 1]].mean(axis=0))
        # Item 0, cluster 1: empty -> zero vector (Eq. 8 fallback).
        np.testing.assert_allclose(agg.data[1], 0.0)
        # Item 1, cluster 1: tag 2 alone.
        np.testing.assert_allclose(agg.data[3], emb.data[2])

    def test_item_without_tags_all_zero(self, rng):
        tiny = tiny_dataset()
        clusters = np.zeros(5, dtype=int)
        emb = Tensor(rng.normal(size=(5, 6)))
        agg, counts = aggregate_tags_per_cluster(
            np.array([5]), tiny.tags_of_item(), emb, clusters, 3
        )
        np.testing.assert_allclose(agg.data, 0.0)
        np.testing.assert_array_equal(counts, [[0, 0, 0]])

    def test_gradcheck(self, rng):
        tiny = tiny_dataset()
        clusters = np.array([0, 1, 0, 1, 0])
        emb = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        batch = np.array([0, 1, 3])
        assert_gradcheck(
            lambda: (
                aggregate_tags_per_cluster(
                    batch, tiny.tags_of_item(), emb, clusters, 2
                )[0]
                ** 2
            ).sum(),
            [emb],
        )


class TestAggregatorEquivalence:
    """Vectorized aggregators vs the per-item reference loops.

    With the subsample cap above every item's user count the reference
    path draws nothing from the RNG, so the two implementations must
    agree to float tolerance on arbitrary batches.
    """

    def test_user_aggregator_matches_reference(self, rng):
        from repro.core import UserAggregator
        from repro.core.alignment import _reference_aggregate_users

        tiny = tiny_dataset()
        users_of_item = tiny.users_of_item()
        emb = Tensor(rng.normal(size=(4, 6)))
        agg = UserAggregator(users_of_item, 100, np.random.default_rng(0))
        for batch in ([0, 1, 2], [5], [3, 3, 0], list(range(6))):
            batch = np.array(batch)
            fast = agg(batch, emb)
            ref = _reference_aggregate_users(
                batch, users_of_item, emb, np.random.default_rng(0), 100
            )
            np.testing.assert_allclose(fast.data, ref.data, atol=1e-12)

    def test_user_aggregator_matches_reference_random(self, rng):
        from repro.core import UserAggregator
        from repro.core.alignment import _reference_aggregate_users

        for seed in range(3):
            r = np.random.default_rng(seed)
            num_users, num_items = 20, 12
            users_of_item = [
                np.sort(r.choice(num_users, size=r.integers(0, 9), replace=False))
                for _ in range(num_items)
            ]
            emb = Tensor(r.normal(size=(num_users, 5)))
            agg = UserAggregator(users_of_item, 50, np.random.default_rng(1))
            batch = r.integers(0, num_items, size=8)
            fast = agg(batch, emb)
            ref = _reference_aggregate_users(
                batch, users_of_item, emb, np.random.default_rng(1), 50
            )
            np.testing.assert_allclose(fast.data, ref.data, atol=1e-12)

    def test_user_aggregator_gradients_match_reference(self, rng):
        from repro.core import UserAggregator
        from repro.core.alignment import _reference_aggregate_users

        tiny = tiny_dataset()
        batch = np.array([0, 1, 5])
        fast_emb = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        ref_emb = Tensor(fast_emb.data.copy(), requires_grad=True)
        agg = UserAggregator(tiny.users_of_item(), 100, np.random.default_rng(0))
        (agg(batch, fast_emb) ** 2).sum().backward()
        (
            _reference_aggregate_users(
                batch, tiny.users_of_item(), ref_emb, np.random.default_rng(0), 100
            )
            ** 2
        ).sum().backward()
        np.testing.assert_allclose(fast_emb.grad, ref_emb.grad, atol=1e-12)

    def test_tag_aggregator_matches_reference(self, rng):
        from repro.core import TagAggregator
        from repro.core.alignment import (
            _reference_aggregate_tags_per_cluster,
        )

        tiny = tiny_dataset()
        clusters = np.array([0, 1, 0, 1, 0])
        emb = Tensor(rng.normal(size=(5, 6)))
        agg = TagAggregator(tiny.tags_of_item(), 2)
        for batch in ([0, 1], [5], [4, 4, 2], list(range(6))):
            batch = np.array(batch)
            fast, fast_counts = agg(batch, emb, clusters)
            ref, ref_counts = _reference_aggregate_tags_per_cluster(
                batch, tiny.tags_of_item(), emb, clusters, 2
            )
            np.testing.assert_array_equal(fast_counts, ref_counts)
            np.testing.assert_allclose(fast.data, ref.data, atol=1e-12)

    def test_public_aliases_point_at_references(self):
        from repro.core import alignment

        assert aggregate_users is alignment._reference_aggregate_users
        assert (
            aggregate_tags_per_cluster
            is alignment._reference_aggregate_tags_per_cluster
        )


class TestRelatednessWeights:
    def test_softmax_of_counts(self):
        counts = np.array([[1, 2, 0]])
        weights = relatedness_weights(counts)
        expected = np.exp([1.0, 2.0, 0.0])
        expected /= expected.sum()
        np.testing.assert_allclose(weights[0], expected)

    def test_rows_sum_to_one(self, rng):
        counts = rng.integers(0, 10, size=(6, 4))
        np.testing.assert_allclose(
            relatedness_weights(counts).sum(axis=1), 1.0
        )

    def test_large_counts_stable(self):
        weights = relatedness_weights(np.array([[1000, 0]]))
        assert np.all(np.isfinite(weights))
        assert weights[0, 0] == pytest.approx(1.0)

    def test_uniform_counts_uniform_weights(self):
        weights = relatedness_weights(np.array([[3, 3, 3, 3]]))
        np.testing.assert_allclose(weights, 0.25)


class TestIntentAlignment:
    def make(self, config=None, dim=8):
        config = config or IMCATConfig(num_intents=2, align_batch_size=4)
        return IntentAlignment(dim, config, np.random.default_rng(0)), config

    def _inputs(self, rng, batch=4, dim=8, k=2):
        return dict(
            item_batch=np.arange(batch),
            user_aggregation=Tensor(rng.normal(size=(batch, dim)), requires_grad=True),
            item_embeddings=Tensor(rng.normal(size=(batch, dim)), requires_grad=True),
            tag_aggregation_all=Tensor(
                rng.normal(size=(batch * k, dim)), requires_grad=True
            ),
            tag_counts=np.ones((batch, k), dtype=int),
        )

    def test_loss_is_finite_scalar(self, rng):
        module, _ = self.make()
        loss = module.alignment_loss(**self._inputs(rng))
        assert loss.size == 1
        assert np.isfinite(loss.item())

    def test_disabled_alignment_returns_zero(self, rng):
        module, _ = self.make(IMCATConfig(num_intents=2).without_uit())
        loss = module.alignment_loss(**self._inputs(rng))
        assert loss.item() == 0.0

    def test_gradients_reach_all_sources(self, rng):
        module, _ = self.make()
        inputs = self._inputs(rng)
        module.alignment_loss(**inputs).backward()
        assert inputs["user_aggregation"].grad is not None
        assert inputs["item_embeddings"].grad is not None
        assert inputs["tag_aggregation_all"].grad is not None

    def test_wo_ui_blocks_item_gradient(self, rng):
        module, _ = self.make(
            IMCATConfig(num_intents=2).without_ui()
        )
        inputs = self._inputs(rng)
        module.alignment_loss(**inputs).backward()
        assert inputs["item_embeddings"].grad is None

    def test_wo_ut_blocks_tag_gradient(self, rng):
        module, _ = self.make(
            IMCATConfig(num_intents=2).without_ut()
        )
        inputs = self._inputs(rng)
        module.alignment_loss(**inputs).backward()
        assert inputs["tag_aggregation_all"].grad is None

    def test_both_sources_disabled_rejected(self, rng):
        module, _ = self.make(
            IMCATConfig(num_intents=2, align_item=False, align_tag=False)
        )
        with pytest.raises(ValueError, match="align_tag/align_item"):
            module.alignment_loss(**self._inputs(rng))

    def test_nlt_changes_loss(self, rng):
        with_nlt, _ = self.make(IMCATConfig(num_intents=2))
        without, _ = self.make(IMCATConfig(num_intents=2).without_nlt())
        # Same parameters for the shared pieces (fresh rngs seeded alike).
        inputs_state = rng.bit_generator.state
        inputs_a = self._inputs(np.random.default_rng(42))
        inputs_b = self._inputs(np.random.default_rng(42))
        loss_a = with_nlt.alignment_loss(**inputs_a).item()
        loss_b = without.alignment_loss(**inputs_b).item()
        assert loss_a != pytest.approx(loss_b)

    def test_positive_mask_used(self, rng):
        module, config = self.make()
        inputs = self._inputs(rng)
        mask = np.eye(4, dtype=bool)
        mask[0, 1] = True
        masked = module.alignment_loss(
            **inputs, positive_masks=[mask, None]
        ).item()
        plain = module.alignment_loss(**inputs).item()
        assert masked != pytest.approx(plain)

    def test_items_without_tags_keep_zero_tag_component(self, rng):
        """Eq. 8: missing cluster tags must not inject garbage directions."""
        module, config = self.make()
        inputs = self._inputs(rng)
        inputs["tag_counts"] = np.zeros((4, 2), dtype=int)
        # Tag aggregation rows are zero for empty clusters in practice,
        # but even with nonzero rows the mask must nullify them: the
        # loss equals the item-only view's (same parameters, since the
        # tag projections exist either way) whatever the rows hold.
        loss = module.alignment_loss(**inputs).item()
        item_only = IntentAlignment(
            8, config.without_ut(), np.random.default_rng(0)
        )
        assert item_only.alignment_loss(**inputs).item() == loss
        inputs["tag_aggregation_all"] = Tensor(rng.normal(size=(8, 8)) * 9.0)
        assert module.alignment_loss(**inputs).item() == loss

    def test_gradcheck_full_loss(self, rng):
        module, _ = self.make(dim=4)
        inputs = dict(
            item_batch=np.arange(3),
            user_aggregation=Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            item_embeddings=Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            tag_aggregation_all=Tensor(rng.normal(size=(6, 4)), requires_grad=True),
            tag_counts=np.array([[1, 0], [2, 1], [0, 3]]),
        )
        params = list(module.parameters())
        assert_gradcheck(
            lambda: module.alignment_loss(**inputs),
            [
                inputs["user_aggregation"],
                inputs["item_embeddings"],
                inputs["tag_aggregation_all"],
            ]
            + params,
            atol=2e-6,
        )


class TestUserAggregatorModes:
    def test_invalid_mode_rejected(self, rng):
        from repro.core import UserAggregator

        with pytest.raises(ValueError, match="mode"):
            UserAggregator([np.array([0])], 4, rng, mode="max")

    def test_attention_requires_item_embeddings(self, rng):
        from repro.core import UserAggregator

        tiny = tiny_dataset()
        agg = UserAggregator(tiny.users_of_item(), 8, rng, mode="attention")
        emb = Tensor(rng.normal(size=(4, 6)))
        with pytest.raises(ValueError, match="item_embeddings"):
            agg(np.array([0]), emb)

    def test_attention_weights_are_convex_combination(self, rng):
        from repro.core import UserAggregator

        tiny = tiny_dataset()
        agg = UserAggregator(tiny.users_of_item(), 8, rng, mode="attention")
        users = Tensor(rng.normal(size=(4, 6)))
        items = Tensor(rng.normal(size=(2, 6)))
        out = agg(np.array([0, 1]), users, item_embeddings=items)
        # Output lies inside the convex hull of the contributing rows:
        # check the per-dimension bounds for item 0 (users 0, 1, 2).
        contributing = users.data[[0, 1, 2]]
        assert np.all(out.data[0] <= contributing.max(axis=0) + 1e-9)
        assert np.all(out.data[0] >= contributing.min(axis=0) - 1e-9)

    def test_attention_item_without_users_zero(self, rng):
        from repro.core import UserAggregator

        users_of_item = [np.array([0]), np.array([], dtype=int)]
        agg = UserAggregator(users_of_item, 4, rng, mode="attention")
        users = Tensor(rng.normal(size=(1, 4)))
        items = Tensor(rng.normal(size=(1, 4)))
        out = agg(np.array([1]), users, item_embeddings=items)
        np.testing.assert_allclose(out.data, 0.0)

    def test_attention_gradients_flow(self, rng):
        from repro.core import UserAggregator

        tiny = tiny_dataset()
        agg = UserAggregator(tiny.users_of_item(), 8, rng, mode="attention")
        users = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        items = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        out = agg(np.array([0, 1]), users, item_embeddings=items)
        (out ** 2).sum().backward()
        assert users.grad is not None
        assert items.grad is not None

    def test_imcat_trains_with_attention_aggregation(
        self, small_dataset, small_split, rng
    ):
        from repro.core import IMCAT
        from repro.models import BPRMF

        backbone = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 16,
            np.random.default_rng(0),
        )
        model = IMCAT(
            backbone, small_dataset, small_split.train,
            IMCATConfig(num_intents=4, user_aggregation="attention"),
            rng=np.random.default_rng(0),
        )
        model.refresh_clusters(rng)
        loss = model.alignment_loss(np.arange(8), rng)
        assert np.isfinite(loss.item())
        loss.backward()
        assert backbone.user_embedding.weight.grad is not None


class TestUserAggregatorResample:
    def test_resample_changes_subsample_of_popular_items(self, rng):
        from repro.core import UserAggregator

        users_of_item = [np.arange(100)]  # far over any cap
        agg = UserAggregator(users_of_item, 8, np.random.default_rng(0))
        before = agg._padded.copy()
        agg.resample(np.random.default_rng(1))
        assert not np.array_equal(agg._padded, before)

    def test_resample_keeps_small_items_fixed(self, rng):
        from repro.core import UserAggregator

        users_of_item = [np.array([3, 5])]  # under the cap
        agg = UserAggregator(users_of_item, 8, np.random.default_rng(0))
        before = agg._padded.copy()
        agg.resample(np.random.default_rng(1))
        np.testing.assert_array_equal(agg._padded, before)
