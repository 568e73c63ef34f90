"""Index construction and routing: partitions, centroids, strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IMCAT, IMCATConfig
from repro.models import BPRMF
from repro.retrieval import (
    INDEX_FORMAT_VERSION,
    ClusterIndex,
    ExactIndex,
    build_index,
    model_fingerprint,
)

from ..helpers import reference_mask, reference_shortlists, tiny_dataset
from .conftest import HEAD_SIZE, NUM_ITEMS, NUM_PARTITIONS


class TestFingerprint:
    def test_deterministic_for_same_model(self, model):
        assert model_fingerprint(model) == model_fingerprint(model)

    def test_changes_with_item_table(self, model):
        before = model_fingerprint(model)
        model.item_embedding.weight.data[0, 0] += 1.0
        assert model_fingerprint(model) != before


class TestExactIndex:
    def test_candidates_are_full_catalogue(self, model):
        index = ExactIndex.build(model)
        np.testing.assert_array_equal(
            index.candidates(np.zeros(4)), np.arange(NUM_ITEMS)
        )
        lists = index.candidate_lists(np.zeros((3, 4)), n_probe=1)
        assert len(lists) == 3
        for shortlist in lists:
            np.testing.assert_array_equal(shortlist, np.arange(NUM_ITEMS))

    def test_mask_is_all_true(self, model):
        mask = ExactIndex.build(model).candidate_mask(np.zeros((3, 4)), 1)
        assert mask.shape == (3, NUM_ITEMS) and mask.all()

    def test_rejects_empty_catalogue(self):
        with pytest.raises(ValueError, match="num_items"):
            ExactIndex(0)


class TestClusterIndexValidation:
    def test_partition_ids_must_be_in_range(self):
        with pytest.raises(ValueError, match="partition ids"):
            ClusterIndex(np.array([0, 3]), np.zeros((2, 4)))

    def test_popular_head_must_be_in_range(self):
        with pytest.raises(ValueError, match="popular_head"):
            ClusterIndex(
                np.array([0, 1]), np.zeros((2, 4)),
                popular_head=np.array([5]),
            )

    def test_route_rejects_bad_n_probe(self, index):
        with pytest.raises(ValueError, match="n_probe"):
            index.route(np.zeros((1, index.centroids.shape[1])), 0)


class TestRouting:
    def test_probes_ordered_best_first(self, index):
        rng = np.random.default_rng(0)
        users = rng.normal(size=(8, index.centroids.shape[1]))
        probes = index.route(users, n_probe=index.num_partitions)
        affinity = users @ index.centroids.T
        taken = np.take_along_axis(affinity, probes, axis=1)
        assert (np.diff(taken, axis=1) <= 1e-12).all()

    def test_empty_partitions_never_probed(self):
        # All items in partition 0; partition 1 exists but is empty.
        index = ClusterIndex(
            np.zeros(6, dtype=np.int64),
            np.stack([np.zeros(4), np.full(4, 10.0)]),
        )
        user = np.full(4, 1.0)  # affinity strongly favours partition 1
        probes = index.route(user[None, :], n_probe=2)
        assert 1 not in probes[0]
        np.testing.assert_array_equal(
            index.candidates(user, n_probe=2), np.arange(6)
        )

    def test_full_probe_covers_catalogue(self, index):
        user = np.ones(index.centroids.shape[1])
        shortlist = index.candidates(user, n_probe=index.num_partitions)
        np.testing.assert_array_equal(shortlist, np.arange(NUM_ITEMS))

    def test_shortlist_always_includes_popular_head(self, index):
        user = np.ones(index.centroids.shape[1]) * -5.0
        shortlist = index.candidates(user, n_probe=1)
        assert set(index.popular_head.tolist()) <= set(shortlist.tolist())


def random_index(seed: int, num_items: int = 80, num_partitions: int = 9):
    """An index with empty partitions and a head that overlaps them."""
    rng = np.random.default_rng(seed)
    # Only a random subset of partition ids is ever used.
    used = rng.choice(num_partitions, size=num_partitions // 2, replace=False)
    partitions = rng.choice(used, size=num_items)
    head = rng.choice(num_items, size=7, replace=False)
    return ClusterIndex(
        partitions, rng.normal(size=(num_partitions, 5)), popular_head=head
    )


class TestCandidateMask:
    """The vectorized mask against the union-of-members reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_union_of_members(self, seed):
        index = random_index(seed)
        non_empty = int((index.partition_sizes > 0).sum())
        assert non_empty < index.num_partitions  # empty partitions exist
        users = np.random.default_rng(seed + 100).normal(size=(11, 5))
        for n_probe in range(1, index.num_partitions + 2):
            expected = reference_shortlists(index, users, n_probe)
            np.testing.assert_array_equal(
                index.candidate_mask(users, n_probe),
                reference_mask(index, users, n_probe),
            )
            lists = index.candidate_lists(users, n_probe)
            assert len(lists) == len(expected)
            for row, (got, want) in enumerate(zip(lists, expected)):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(
                    index.candidates(users[row], n_probe), want
                )

    def test_head_overlapping_probed_partition_counted_once(self):
        index = ClusterIndex(
            np.array([0, 0, 1, 1]), np.eye(2), popular_head=np.array([1, 2])
        )
        user = np.array([1.0, 0.0])  # routes to partition 0
        np.testing.assert_array_equal(
            index.candidate_mask(user, 1), [[True, True, True, False]]
        )
        np.testing.assert_array_equal(index.candidates(user, 1), [0, 1, 2])

    def test_probing_past_non_empty_partitions_covers_catalogue(self):
        index = random_index(0)
        users = np.random.default_rng(1).normal(size=(4, 5))
        assert index.candidate_mask(users, index.num_partitions + 5).all()


class TestBuildIndex:
    def test_every_item_in_exactly_one_partition(self, index):
        assert index.num_items == NUM_ITEMS
        assert index.item_partitions.shape == (NUM_ITEMS,)
        assert index.partition_sizes.sum() == NUM_ITEMS

    def test_popular_head_is_top_popularity_descending(self, index, popularity):
        expected = np.argsort(popularity)[::-1][:HEAD_SIZE]
        np.testing.assert_array_equal(index.popular_head, expected)

    def test_kmeans_fallback_without_intent_exporter(self, model, popularity):
        index = build_index(model, num_partitions=NUM_PARTITIONS, seed=0)
        assert index.strategy == "kmeans"
        assert index.popular_head.size == 0

    def test_intent_strategy_requires_exporter(self, model):
        with pytest.raises(ValueError, match="item_intent_assignments"):
            build_index(model, strategy="intent")

    def test_unknown_strategy_rejected(self, model):
        with pytest.raises(ValueError, match="strategy"):
            build_index(model, strategy="annoy")

    def test_centroid_is_member_mean(self, model):
        index = build_index(model, num_partitions=NUM_PARTITIONS, seed=0)
        from repro.retrieval import item_vectors

        vectors = item_vectors(model)
        for part in range(index.num_partitions):
            members = index.item_partitions == part
            if members.any():
                np.testing.assert_allclose(
                    index.centroids[part], vectors[members].mean(axis=0)
                )


class TestIntentStrategy:
    @staticmethod
    def make_imcat():
        dataset = tiny_dataset()
        backbone = BPRMF(
            dataset.num_users, dataset.num_items, 8,
            rng=np.random.default_rng(0),
        )
        wrapper = IMCAT(
            backbone, dataset, dataset,
            config=IMCATConfig(num_intents=2),
            rng=np.random.default_rng(0),
        )
        return wrapper

    def test_inactive_clustering_exports_none(self):
        wrapper = self.make_imcat()
        assert wrapper.item_intent_assignments() is None
        # auto strategy falls back to kmeans, never errors.
        index = build_index(wrapper, num_partitions=2, seed=0)
        assert index.strategy == "kmeans"

    def test_active_clustering_partitions_by_majority_tag_cluster(self):
        wrapper = self.make_imcat()
        wrapper.clustering_active = True
        wrapper.tag_clusters = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        assignments = wrapper.item_intent_assignments()
        # Item 5 has no tags: exported as -1, routed at build time.
        assert assignments[5] == -1
        assert set(assignments[:5].tolist()) <= {0, 1}

        index = build_index(wrapper, strategy="intent")
        assert index.strategy == "intent"
        # The intent strategy inherits the model's K, not num_partitions.
        assert index.num_partitions == 2
        # Tagged items keep their majority vote; the tagless item landed
        # in a real partition.
        tagged = assignments >= 0
        np.testing.assert_array_equal(
            index.item_partitions[tagged], assignments[tagged]
        )
        assert 0 <= index.item_partitions[5] < 2


class TestSerialisation:
    def test_state_round_trip_preserves_routing(self, index):
        clone = ClusterIndex.from_state(index.state_dict())
        rng = np.random.default_rng(1)
        users = rng.normal(size=(5, index.centroids.shape[1]))
        for user in users:
            np.testing.assert_array_equal(
                index.candidates(user, 2), clone.candidates(user, 2)
            )
        assert clone.fingerprint == index.fingerprint
        assert clone.strategy == index.strategy

    def test_future_format_rejected(self, index):
        state = index.state_dict()
        state["format"] = INDEX_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format"):
            ClusterIndex.from_state(state)

    def test_wrong_kind_rejected(self, model):
        state = ExactIndex.build(model).state_dict()
        with pytest.raises(ValueError, match="cluster"):
            ClusterIndex.from_state(state)
