"""Tests for the full-ranking evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import TagRecDataset
from repro.eval import Evaluator


class PerfectModel:
    """Scores the user's test items highest (oracle)."""

    def __init__(self, test: TagRecDataset, num_items: int):
        self._test_items = test.items_of_user()
        self._num_items = num_items

    def all_scores(self, users):
        scores = np.zeros((len(users), self._num_items))
        for row, user in enumerate(users):
            scores[row, self._test_items[user]] = 10.0
        return scores


class ConstantModel:
    def __init__(self, num_items: int):
        self._num_items = num_items

    def all_scores(self, users):
        # Item 0 always best, then 1, 2, ...
        return -np.tile(np.arange(self._num_items, dtype=float), (len(users), 1))


def make_pair():
    train = TagRecDataset(
        num_users=3, num_items=8, num_tags=1,
        user_ids=np.array([0, 0, 1, 2]), item_ids=np.array([0, 1, 0, 2]),
        tag_item_ids=np.array([0]), tag_ids=np.array([0]),
    )
    test = train.with_interactions(
        np.array([0, 1, 1]), np.array([2, 3, 4])
    )
    return train, test


class TestEvaluator:
    def test_unknown_metric_rejected(self):
        train, test = make_pair()
        with pytest.raises(ValueError, match="unknown metrics"):
            Evaluator(train, test, metrics=("bogus",))

    def test_oracle_gets_perfect_recall(self):
        train, test = make_pair()
        evaluator = Evaluator(train, test, top_n=(5,), metrics=("recall", "ndcg"))
        result = evaluator.evaluate(PerfectModel(test, 8))
        assert result["recall@5"] == pytest.approx(1.0)
        assert result["ndcg@5"] == pytest.approx(1.0)

    def test_users_without_test_items_skipped(self):
        train, test = make_pair()
        evaluator = Evaluator(train, test)
        assert 2 not in evaluator.eval_users  # user 2 has no test items

    def test_training_items_masked(self):
        train, test = make_pair()
        # ConstantModel ranks item 0 first, but item 0 is in train for
        # users 0 and 1, so it must not appear in their rankings.
        evaluator = Evaluator(train, test, top_n=(1,), metrics=("recall",))
        result = evaluator.evaluate(ConstantModel(8))
        # user 0: top unmasked item is 2 (its test item!) -> hit.
        # user 1: top unmasked is 1 -> miss (test items 3, 4).
        per_user = result.per_user["recall@1"]
        assert per_user[0] == pytest.approx(1.0)
        assert per_user[1] == pytest.approx(0.0)

    def test_user_subset_restriction(self):
        train, test = make_pair()
        evaluator = Evaluator(train, test, user_subset=[1])
        np.testing.assert_array_equal(evaluator.eval_users, [1])

    def test_chunked_evaluation_matches_single(self):
        train, test = make_pair()
        evaluator = Evaluator(train, test, top_n=(3,))
        model = PerfectModel(test, 8)
        a = evaluator.evaluate(model, chunk_size=1).metrics
        b = evaluator.evaluate(model, chunk_size=100).metrics
        assert a == b

    def test_bad_score_shape_detected(self):
        train, test = make_pair()
        evaluator = Evaluator(train, test)

        class Broken:
            def all_scores(self, users):
                return np.zeros((1, 8))

        with pytest.raises(ValueError, match="rows"):
            evaluator.evaluate(Broken(), chunk_size=2)

    def test_multiple_cutoffs(self):
        train, test = make_pair()
        evaluator = Evaluator(train, test, top_n=(1, 5), metrics=("recall",))
        result = evaluator.evaluate(PerfectModel(test, 8))
        assert result["recall@5"] >= result["recall@1"]

    def test_summary_format(self):
        train, test = make_pair()
        result = Evaluator(train, test).evaluate(PerfectModel(test, 8))
        assert "recall@20=" in result.summary()


class RandomModel:
    """Continuous random scores — no ties, exercises arbitrary rankings."""

    def __init__(self, num_items: int, seed: int):
        self._num_items = num_items
        self._rng = np.random.default_rng(seed)
        self._scores = None

    def all_scores(self, users):
        if self._scores is None:
            # One fixed table so repeated evaluations see the same scores.
            self._scores = self._rng.normal(size=(1000, self._num_items))
        return self._scores[users]


def random_pair(seed, num_users=30, num_items=40):
    """A random train/test interaction pair with edge cases baked in."""
    rng = np.random.default_rng(seed)
    users, items = [], []
    for u in range(num_users):
        degree = int(rng.integers(0, 8))
        for i in rng.choice(num_items, size=degree, replace=False):
            users.append(u)
            items.append(int(i))
    train = TagRecDataset(
        num_users=num_users, num_items=num_items, num_tags=1,
        user_ids=np.array(users, dtype=np.int64),
        item_ids=np.array(items, dtype=np.int64),
        tag_item_ids=np.array([0]), tag_ids=np.array([0]),
    )
    t_users, t_items = [], []
    for u in range(num_users):
        if rng.random() < 0.2:
            continue  # some users have no test items at all
        degree = int(rng.integers(1, 5))
        for i in rng.choice(num_items, size=degree, replace=False):
            t_users.append(u)
            t_items.append(int(i))
    test = train.with_interactions(
        np.array(t_users, dtype=np.int64), np.array(t_items, dtype=np.int64)
    )
    return train, test


class TestFastMatchesReference:
    """The vectorized path must reproduce the per-user loop exactly."""

    ALL_METRICS = ("recall", "ndcg", "precision", "hit_rate", "map")

    def assert_equivalent(self, evaluator, model, chunk_size=256):
        fast = evaluator.evaluate(model, chunk_size=chunk_size)
        ref = evaluator.evaluate_reference(model, chunk_size=chunk_size)
        assert set(fast.per_user) == set(ref.per_user)
        np.testing.assert_array_equal(fast.user_ids, ref.user_ids)
        for key in ref.per_user:
            np.testing.assert_allclose(
                fast.per_user[key], ref.per_user[key], atol=1e-9,
                err_msg=f"per-user {key} diverges",
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_models_all_metrics(self, seed):
        train, test = random_pair(seed)
        evaluator = Evaluator(
            train, test, top_n=(1, 5, 20), metrics=self.ALL_METRICS
        )
        self.assert_equivalent(evaluator, RandomModel(40, seed + 100))

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 1000])
    def test_every_chunk_size(self, chunk_size):
        train, test = random_pair(7)
        evaluator = Evaluator(train, test, top_n=(10,), metrics=self.ALL_METRICS)
        self.assert_equivalent(
            evaluator, RandomModel(40, 1), chunk_size=chunk_size
        )

    def test_cutoff_beyond_item_count(self):
        # max_n > |V| exercises the k-clipping in both paths.
        train, test = random_pair(3, num_items=15)
        evaluator = Evaluator(train, test, top_n=(50,), metrics=("recall", "ndcg"))
        self.assert_equivalent(evaluator, RandomModel(15, 2))

    def test_heavy_train_mask(self):
        # Users whose training set leaves fewer than max_n candidates.
        train, test = make_pair()
        evaluator = Evaluator(train, test, top_n=(8,), metrics=self.ALL_METRICS)
        self.assert_equivalent(evaluator, RandomModel(8, 3))

    def test_tied_scores_rank_identically(self):
        # ConstantModel produces distinct scores; an all-equal scorer is
        # the worst tie case — both paths must break ties the same way.
        train, test = random_pair(11)

        class Ties:
            def all_scores(self, users):
                return np.zeros((len(users), 40))

        evaluator = Evaluator(train, test, top_n=(5, 20), metrics=self.ALL_METRICS)
        self.assert_equivalent(evaluator, Ties())

    @pytest.mark.parametrize("scorer", ["all_equal", "integer"])
    def test_ties_over_a_large_catalogue(self, scorer):
        # 2,500 items reach top_k_rows' prefilter (16 * 20 = 320 items);
        # the 40-item tie test above never does.
        train, test = random_pair(13, num_users=60, num_items=2500)

        class Ties:
            def all_scores(self, users):
                if scorer == "all_equal":
                    return np.zeros((len(users), 2500))
                rng = np.random.default_rng(np.asarray(users))
                return rng.integers(0, 4, size=(len(users), 2500)).astype(float)

        evaluator = Evaluator(train, test, top_n=(5, 20), metrics=self.ALL_METRICS)
        self.assert_equivalent(evaluator, Ties(), chunk_size=16)

    def test_fast_does_not_mutate_model_scores(self):
        train, test = make_pair()
        model = RandomModel(8, 5)
        model.all_scores(np.arange(3))  # materialise the cached table
        before = model._scores.copy()
        Evaluator(train, test, top_n=(5,)).evaluate(model)
        np.testing.assert_array_equal(model._scores, before)

    def test_perf_registry_records_phases(self):
        from repro.perf import StopwatchRegistry

        train, test = make_pair()
        perf = StopwatchRegistry()
        Evaluator(train, test).evaluate(PerfectModel(test, 8), perf=perf)
        assert perf.count("score") > 0
        assert perf.count("rank") > 0
        assert perf.count("metrics") > 0


class TestAllMetrics:
    def test_five_metrics_computed(self):
        train, test = make_pair()
        evaluator = Evaluator(
            train, test, top_n=(5,),
            metrics=("recall", "ndcg", "precision", "hit_rate", "map"),
        )
        result = evaluator.evaluate(PerfectModel(test, 8))
        assert set(result.metrics) == {
            "recall@5", "ndcg@5", "precision@5", "hit_rate@5", "map@5",
        }
        # Oracle: recall, ndcg, hit rate and MAP are all perfect.
        assert result["recall@5"] == pytest.approx(1.0)
        assert result["hit_rate@5"] == pytest.approx(1.0)
        assert result["map@5"] == pytest.approx(1.0)
