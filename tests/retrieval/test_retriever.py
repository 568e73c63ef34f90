"""Retriever/ApproximateScorer properties: agreement, monotonicity,
escalation, staleness."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import IMCAT, IMCATConfig
from repro.models import BPRMF, LightGCN, NeuMF
from repro.retrieval import (
    ApproximateScorer,
    ExactIndex,
    IndexMismatch,
    Retriever,
    build_index,
    user_vectors,
)

from ..helpers import reference_mask, reference_pair_scores
from .conftest import NUM_ITEMS, NUM_PARTITIONS, NUM_USERS

TOP_K = 10


def exact_top_k(model, user, k=TOP_K):
    scores = model.all_scores(np.array([user]))[0]
    return set(np.argsort(scores)[::-1][:k].tolist())


class TestExactAgreement:
    def test_full_probe_matches_exact_recommend(self, model, index):
        for user in range(NUM_USERS):
            approx = Retriever(
                model, index, n_probe=index.num_partitions
            ).recommend(user, top_n=TOP_K)
            exact = model.recommend(user, top_n=TOP_K)
            np.testing.assert_array_equal(approx, exact)

    def test_exact_index_matches_exact_recommend(self, model):
        retriever = Retriever(model, ExactIndex.build(model), n_probe=1)
        for user in (0, NUM_USERS - 1):
            np.testing.assert_array_equal(
                retriever.recommend(user, top_n=TOP_K),
                model.recommend(user, top_n=TOP_K),
            )

    def test_full_probe_scorer_matches_all_scores(self, model, index):
        scorer = ApproximateScorer(
            model, index, n_probe=index.num_partitions
        )
        users = np.arange(NUM_USERS)
        np.testing.assert_array_equal(
            scorer.all_scores(users), model.all_scores(users)
        )


def _imcat_over_lightgcn(dataset, split, rng):
    backbone = LightGCN(
        dataset.num_users, dataset.num_items,
        (split.train.user_ids, split.train.item_ids), 16, rng=rng,
    )
    model = IMCAT(
        backbone, dataset, split.train, IMCATConfig(num_intents=4), rng=rng
    )
    # Stand-in for a fitted clustering phase: random hard tag clusters
    # give the intent strategy a partition to route through.
    model.clustering_active = True
    model.tag_clusters = rng.integers(0, 4, size=dataset.num_tags)
    return model, "intent"


SCORING_MODELS = {
    "bprmf": lambda dataset, split, rng: (
        BPRMF(dataset.num_users, dataset.num_items, 16, rng), "kmeans"
    ),
    "imcat-lightgcn": _imcat_over_lightgcn,
    # Not a dot product: its dense path is a factorised MLP.
    "neumf": lambda dataset, split, rng: (
        NeuMF(dataset.num_users, dataset.num_items, 16, rng=rng), "kmeans"
    ),
}


class TestDenseScorerEquivalence:
    """The scorer is the model's dense scores under the shortlist mask."""

    @pytest.mark.parametrize("name", sorted(SCORING_MODELS))
    def test_every_n_probe(self, name, small_dataset, small_split):
        model, strategy = SCORING_MODELS[name](
            small_dataset, small_split, np.random.default_rng(5)
        )
        model.eval()
        index = build_index(
            model,
            num_partitions=6,
            strategy=strategy,
            popularity=small_split.train.item_degrees(),
            popular_head=8,
            seed=0,
        )
        assert index.strategy == strategy
        users = np.arange(small_dataset.num_users)
        vectors = user_vectors(model, users)
        dense = model.all_scores(users)
        for n_probe in range(1, index.num_partitions + 1):
            mask = reference_mask(index, vectors, n_probe)
            got = ApproximateScorer(model, index, n_probe).all_scores(users)
            np.testing.assert_array_equal(
                got, np.where(mask, dense, -np.inf)
            )
            # The per-pair scores the shortlist used to be scored with.
            pairs = reference_pair_scores(model, users, mask)
            np.testing.assert_array_equal(np.isfinite(got), mask)
            np.testing.assert_allclose(
                got[mask], pairs[mask], rtol=0.0, atol=1e-12
            )


def test_all_scores_memory_is_linear_in_the_score_matrix():
    """One call allocates O(B·|V|), never O(B·|V|·d) pair operands."""
    batch, num_items, dim = 256, 1000, 16
    model = BPRMF(batch, num_items, dim, rng=np.random.default_rng(0))
    index = build_index(model, num_partitions=4, seed=0)
    # Full probe: the widest shortlist, where a pair gather would
    # materialise two (B·|V|, d) operands.
    scorer = ApproximateScorer(model, index, n_probe=index.num_partitions)
    users = np.arange(batch)
    tracemalloc.start()
    try:
        scorer.all_scores(users)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * batch * num_items * 8, peak


class TestMonotonicity:
    def test_overlap_with_exact_monotone_in_n_probe(self, model, index):
        """More probes can only widen the shortlist, so agreement with
        the exact top-K is non-decreasing (and 1.0 at full probe)."""
        overlaps = []
        for n_probe in range(1, index.num_partitions + 1):
            retriever = Retriever(model, index, n_probe=n_probe)
            hits = 0
            for user in range(NUM_USERS):
                approx = set(
                    retriever.recommend(user, top_n=TOP_K).tolist()
                )
                hits += len(approx & exact_top_k(model, user))
            overlaps.append(hits / (NUM_USERS * TOP_K))
        assert all(b >= a - 1e-12 for a, b in zip(overlaps, overlaps[1:]))
        assert overlaps[-1] == pytest.approx(1.0)

    def test_shortlists_nested_in_n_probe(self, model, index):
        retriever = Retriever(model, index, n_probe=1)
        narrow = set(retriever.shortlist(0).tolist())
        retriever.n_probe = 3
        wide = set(retriever.shortlist(0).tolist())
        assert narrow <= wide


class TestEdgeCases:
    def test_top_n_beyond_shortlist_escalates_to_full_catalogue(
        self, model, index
    ):
        retriever = Retriever(model, index, n_probe=1)
        items = retriever.recommend(0, top_n=NUM_ITEMS)
        assert len(items) == NUM_ITEMS
        assert retriever.last_scored == NUM_ITEMS

    def test_cold_query_never_empty(self, model, index):
        # Whatever corner of the embedding space a user occupies, the
        # popularity head keeps the shortlist non-empty.
        for user in range(NUM_USERS):
            items = Retriever(model, index, n_probe=1).recommend(
                user, top_n=3
            )
            assert items.size > 0

    def test_exclusions_respected(self, model, index):
        retriever = Retriever(model, index, n_probe=index.num_partitions)
        exclude = set(model.recommend(0, top_n=3).tolist())
        items = retriever.recommend(0, top_n=TOP_K, exclude=exclude)
        assert not set(items.tolist()) & exclude

    def test_bad_n_probe_rejected(self, model, index):
        with pytest.raises(ValueError, match="n_probe"):
            Retriever(model, index, n_probe=0)

    def test_scored_fraction_shrinks(self, model, index):
        retriever = Retriever(model, index, n_probe=1)
        retriever.recommend(0, top_n=3)
        assert 0 < retriever.last_scored < NUM_ITEMS


class TestStaleness:
    def test_retriever_rejects_stale_index(self, model, index):
        model.item_embedding.weight.data += 0.5
        with pytest.raises(IndexMismatch):
            Retriever(model, index)

    def test_scorer_rejects_stale_index(self, model, index):
        model.item_embedding.weight.data += 0.5
        with pytest.raises(IndexMismatch):
            ApproximateScorer(model, index)

    def test_validate_false_skips_the_check(self, model, index):
        model.item_embedding.weight.data += 0.5
        retriever = Retriever(model, index, validate=False)
        assert retriever.recommend(0, top_n=3).size > 0


class TestScorerAccounting:
    def test_scored_items_and_queries_accumulate(self, model, index):
        scorer = ApproximateScorer(model, index, n_probe=1)
        users = np.arange(NUM_USERS)
        scores = scorer.all_scores(users)
        assert scores.shape == (NUM_USERS, NUM_ITEMS)
        assert scorer.queries == NUM_USERS
        # Routing width: strictly fewer shortlisted entries than items.
        assert 0 < scorer.scored_items < NUM_USERS * NUM_ITEMS
        # Off-shortlist columns are -inf, shortlist ones finite.
        finite = np.isfinite(scores).sum()
        assert finite == scorer.scored_items

    def test_rebuilt_index_accepted_after_model_change(self, model, index):
        model.item_embedding.weight.data += 0.5
        fresh = build_index(model, num_partitions=NUM_PARTITIONS, seed=0)
        scorer = ApproximateScorer(model, fresh, n_probe=2)
        assert np.isfinite(scorer.all_scores(np.array([0]))).any()
