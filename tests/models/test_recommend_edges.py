"""`Model.recommend` edge cases — exactly the inputs a serving layer sees.

A request API cannot control what clients ask for: list lengths beyond
the catalogue, exclusion sets covering everything the model knows, and
users with no history all arrive eventually.  `recommend` must stay
well-defined on each (the serving ladder in :mod:`repro.serve` builds
on these guarantees).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import BPRMF, LightGCN

NUM_USERS, NUM_ITEMS, DIM = 5, 8, 4


@pytest.fixture
def model(rng):
    return BPRMF(NUM_USERS, NUM_ITEMS, DIM, rng=rng)


class TestTopNLargerThanCatalogue:
    def test_returns_whole_catalogue_at_most(self, model):
        items = model.recommend(0, top_n=NUM_ITEMS * 10)
        assert items.size == NUM_ITEMS
        assert sorted(items.tolist()) == list(range(NUM_ITEMS))

    def test_with_exclusions(self, model):
        items = model.recommend(0, top_n=NUM_ITEMS * 10, exclude={0, 3})
        assert items.size == NUM_ITEMS - 2
        assert not {0, 3} & set(items.tolist())

    def test_ordering_is_best_first(self, model):
        scores = model.all_scores(np.array([0]))[0]
        items = model.recommend(0, top_n=NUM_ITEMS)
        ranked_scores = scores[items]
        assert np.all(np.diff(ranked_scores) <= 0)


class TestExcludeEverything:
    def test_full_exclusion_returns_empty(self, model):
        items = model.recommend(1, top_n=3, exclude=set(range(NUM_ITEMS)))
        assert items.size == 0

    def test_near_full_exclusion_returns_remainder(self, model):
        exclude = set(range(NUM_ITEMS)) - {5}
        items = model.recommend(1, top_n=3, exclude=exclude)
        np.testing.assert_array_equal(items, [5])

    def test_excluded_never_recommended_even_when_short(self, model):
        # More requested than remain after exclusion: the list shrinks
        # rather than backfilling with excluded items.
        exclude = set(range(NUM_ITEMS - 2))
        items = model.recommend(2, top_n=NUM_ITEMS, exclude=exclude)
        assert set(items.tolist()) == {NUM_ITEMS - 2, NUM_ITEMS - 1}


class TestEmptyHistoryUser:
    def test_cold_user_gets_full_list(self, rng):
        # A user with no training interactions (nothing to exclude)
        # still receives a well-formed, deduplicated top-N.
        model = LightGCN(
            NUM_USERS,
            NUM_ITEMS,
            (np.array([0, 1, 1]), np.array([2, 3, 4])),  # user 4 unseen
            DIM,
            rng=rng,
        )
        items = model.recommend(4, top_n=3, exclude=set())
        assert items.size == 3
        assert items.size == np.unique(items).size
        assert items.min() >= 0 and items.max() < NUM_ITEMS

    def test_cold_user_scores_are_finite(self, rng):
        model = BPRMF(NUM_USERS, NUM_ITEMS, DIM, rng=rng)
        scores = model.all_scores(np.array([NUM_USERS - 1]))[0]
        assert np.all(np.isfinite(scores))


class TestExcludeIterables:
    """``exclude`` takes any iterable of item indices, e.g. a row of
    ``TagRecDataset.items_of_user()``, and answers as the set form."""

    @pytest.mark.parametrize("wrap", [False, True])
    def test_items_of_user_row_matches_set(self, small_dataset, wrap):
        from repro.core import IMCAT, IMCATConfig

        backbone = LightGCN(
            small_dataset.num_users,
            small_dataset.num_items,
            (small_dataset.user_ids, small_dataset.item_ids),
            embed_dim=DIM,
            rng=np.random.default_rng(0),
        )
        model = (
            IMCAT(
                backbone,
                small_dataset,
                small_dataset,
                IMCATConfig(),
                rng=np.random.default_rng(0),
            )
            if wrap
            else backbone
        )
        rows = small_dataset.items_of_user()
        for user in range(0, small_dataset.num_users, 17):
            row = rows[user]
            got = model.recommend(user, top_n=20, exclude=row)
            want = model.recommend(user, top_n=20, exclude=set(row.tolist()))
            assert got.tolist() == want.tolist()
            assert not set(got.tolist()) & set(row.tolist())

    def test_generator_and_empty_array(self, model):
        expected = model.recommend(0, top_n=NUM_ITEMS, exclude={1, 2})
        got = model.recommend(0, top_n=NUM_ITEMS, exclude=(i for i in (1, 2)))
        assert got.tolist() == expected.tolist()
        assert (
            model.recommend(0, exclude=np.array([], dtype=np.int64)).tolist()
            == model.recommend(0).tolist()
        )
